#pragma once
// Flow traces: record what a workload did, replay it deterministically,
// and exchange it as CSV. Substitute for the paper's proprietary
// data-center capture (DESIGN.md): experiments that want "the same
// traffic again, exactly" — detector regression runs, A/B-ing two MARS
// configurations — replay a trace instead of re-sampling the generative
// model.
//
// Also provides the incast pattern (many sources, one sink, synchronized
// start) — the classic data-center stressor the paper's micro-burst
// scenario approximates.

#include <iosfwd>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"

namespace mars::workload {

/// One packet's injection, fully determined.
struct TraceEvent {
  sim::Time at = 0;
  net::FlowId flow;
  std::uint32_t flow_hash = 0;
  std::uint32_t size_bytes = 0;
};

class FlowTrace {
 public:
  void add(const TraceEvent& event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Sort by injection time (stable: equal timestamps keep add order).
  void sort();

  /// Schedule every event on the network's simulator. Events before the
  /// current simulation time are skipped (counted in the return value).
  std::size_t replay(net::Network& network) const;

  /// CSV: a '#' header line "time_ns,src,dst,flow_hash,size_bytes",
  /// then one event per line.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Capture a live workload into a trace by observing injections.
/// Attach to the Network (as its delivery-independent tap) BEFORE
/// starting traffic: it snapshots every inject() call.
class TraceRecorder : public net::PacketObserver {
 public:
  /// Records at the packet's source switch only (one event per packet).
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override;

  [[nodiscard]] const FlowTrace& trace() const { return trace_; }
  [[nodiscard]] FlowTrace take() { return std::move(trace_); }

 private:
  FlowTrace trace_;
};

struct IncastConfig {
  net::SwitchId sink = net::kInvalidSwitch;
  std::vector<net::SwitchId> sources;
  /// Packets each source sends at fixed `spacing` intervals.
  int packets_per_source = 100;
  std::uint32_t size_bytes = 800;
  sim::Time start = 0;
  /// Inter-packet spacing per source (10us = line-rate hammering; larger
  /// values model a sustained synchronized burst).
  sim::Time spacing = 10 * sim::kMicrosecond;
  /// Per-source jitter on the synchronized start.
  sim::Time jitter = 100 * sim::kMicrosecond;
};

/// Build the incast pattern as a trace (deterministic in `seed`).
[[nodiscard]] FlowTrace make_incast(const IncastConfig& config,
                                    std::uint64_t seed);

}  // namespace mars::workload
