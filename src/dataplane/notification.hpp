#pragma once
// Data-plane -> control-plane notification packets (paper §4.2.2, §4.3).
//
// A notification leaves its origin switch's shard as control mail
// (ShardedSimulator::post_control) and reaches the global domain one
// control latency later, where the ControlChannel decides whether and
// when the controller sees it.

#include <cstdint>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace mars::dataplane {

struct Notification {
  enum class Kind : std::uint8_t { kHighLatency, kDrop };

  Kind kind = Kind::kHighLatency;
  net::SwitchId reporter = net::kInvalidSwitch;  ///< switch that triggered
  /// Switch that physically sent the packet. Latency notifications are
  /// issued at the flow's sink on behalf of the flagging hop, so their
  /// origin is the sink; a drop notification's origin is its reporter.
  /// Not part of the 32-byte wire format — routing metadata for the
  /// simulator (the control message leaves from the origin's shard).
  net::SwitchId origin = net::kInvalidSwitch;
  net::FlowId flow;
  sim::Time when = 0;

  // kHighLatency details.
  sim::Time latency = 0;      ///< end-to-end latency observed so far
  sim::Time threshold = 0;    ///< the dynamic threshold that was exceeded

  // kDrop details.
  std::uint32_t epoch_gap = 0;         ///< missing telemetry epochs
  std::uint32_t dropped_estimate = 0;  ///< c_s - c_d

  /// Wire size of a notification packet (diagnosis bandwidth accounting).
  static constexpr std::uint32_t kWireBytes = 32;
};

[[nodiscard]] constexpr const char* kind_name(Notification::Kind kind) {
  return kind == Notification::Kind::kHighLatency ? "HighLatency" : "Drop";
}

}  // namespace mars::dataplane
