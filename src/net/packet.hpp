#pragma once
// Packet model.
//
// A packet carries (a) forwarding state used by the substrate, (b) the MARS
// in-band fields exactly as the paper defines them (§4.1–4.2): an 8-bit-class
// PathID field updated per hop, an optional 11-byte INT telemetry header on
// sampled packets, and the anomaly-suppression flag; (c) the baselines'
// in-band headers: SpiderMon's cumulative queueing delay and IntSight's
// per-switch contention bitmap.
//
// A packet lives in one PacketPool slot from injection until it leaves the
// network, and is copied only when it crosses a shard boundary, so it is
// kept trivially copyable and within two cache lines.

#include <cstdint>
#include <optional>
#include <type_traits>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace mars::net {

/// The INT telemetry header MARS inserts on one sampled packet per flow per
/// epoch (paper §4.2.1: 11 bytes — source timestamp, last-epoch packet
/// count, total queue depth, epoch id).
struct IntHeader {
  sim::Time source_timestamp = 0;  ///< ingress time at the source switch
  std::uint32_t last_epoch_count = 0;  ///< flow packet count in prior epoch
  std::uint32_t total_queue_depth = 0; ///< sum of queue depths over hops
  std::uint32_t epoch_id = 0;          ///< telemetry epoch sequence number

  /// Wire size as deployed on the Tofino prototype.
  static constexpr std::uint32_t kWireBytes = 11;
};

struct Packet {
  // ---- substrate forwarding state ----
  std::uint64_t id = 0;         ///< globally unique packet id
  FlowId flow;                  ///< <source switch, sink switch>
  std::uint32_t flow_hash = 0;  ///< per-flow entropy (stands in for 5-tuple)
  std::uint32_t size_bytes = 0; ///< payload + base headers, excl. telemetry
  sim::Time created = 0;        ///< injection time at the source switch
  sim::Time switch_arrival = 0; ///< arrival at the current switch
  PortId ingress_port = kHostPort;  ///< port the packet arrived on

  // ---- MARS in-band fields ----
  std::uint32_t path_id = 0;    ///< updated per hop (paper §4.1)
  bool has_path_id = false;     ///< source switch inserted the PathID field
  std::optional<IntHeader> telemetry;  ///< present on telemetry packets
  bool anomaly_flagged = false; ///< suppresses duplicate notifications
  /// The switch that set the suppression flag and the latency it
  /// observed, carried in-band so the sink can issue the notification from
  /// its own shard (the flagging switch may live on another shard whose
  /// notification state must not be touched there).
  SwitchId anomaly_reporter = kInvalidSwitch;
  sim::Time anomaly_latency = 0;

  // ---- baseline in-band headers ----
  // Written only by the baseline that owns them (a scenario deploys each
  // system at most once). Their wire bytes are charged by that baseline's
  // overheads(), not by wire_bytes(), so deploying a baseline never
  // changes service times.
  sim::Time spidermon_queue_delay = 0;    ///< SpiderMon: summed hop latency
  std::uint64_t intsight_contention = 0;  ///< IntSight: bit per switch id

  /// Extra bytes this packet carries on the wire because of monitoring.
  /// PathID rides in a reserved IP field (1 byte class); the INT header adds
  /// its wire size on telemetry packets.
  [[nodiscard]] std::uint32_t monitoring_overhead_bytes() const {
    std::uint32_t bytes = has_path_id ? 1u : 0u;
    if (telemetry) bytes += IntHeader::kWireBytes;
    return bytes;
  }

  /// Total bytes occupying link capacity.
  [[nodiscard]] std::uint32_t wire_bytes() const {
    return size_bytes + monitoring_overhead_bytes();
  }
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "packets are copied only as raw bytes (pool slots, mail)");
static_assert(sizeof(Packet) <= 128, "a packet fits in two cache lines");

}  // namespace mars::net
