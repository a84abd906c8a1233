#pragma once
// INT-MD (eMbed Data) mode, per the INT 2.1 dataplane specification —
// the conventional alternative MARS's Motivation #2 argues against:
// every hop pushes its metadata onto a stack inside the packet header, so
// the header grows with the path and the sink sees full per-hop detail.
//
// The hop entry and the knobs shared by the int-md export backend
// (telemetry/int_md_backend.hpp), which runs the mode inside the MARS
// pipeline for apples-to-apples bandwidth and diagnosis-power comparisons
// (Fig. 3, extended Fig. 9).

#include <cstdint>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace mars::telemetry {

/// One hop's embedded metadata (a subset of the INT 2.1 instruction set:
/// node id, level-1 ports, hop latency, queue occupancy).
struct IntMdHop {
  net::SwitchId sw = net::kInvalidSwitch;
  net::PortId in_port = 0;
  net::PortId out_port = 0;
  sim::Time hop_latency = 0;
  std::uint32_t queue_depth = 0;

  /// Wire bytes per hop entry (4 metadata words, as in the INT spec).
  static constexpr std::uint32_t kWireBytes = 8;
};

struct IntMdConfig {
  /// INT shim + md header prepended at the source.
  std::uint32_t shim_bytes = 12;
  /// Sample 1-in-N packets (1 = every packet, the classic deployment).
  std::uint32_t sample_every = 1;
  /// Stop pushing metadata beyond this many hops (spec's Remaining Hop
  /// Count); deeper hops traverse without recording.
  std::uint32_t max_hops = 16;
};

}  // namespace mars::telemetry
