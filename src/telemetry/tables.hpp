#pragma once
// Edge-switch telemetry state (paper §4.2.2):
//
//   - Ingress Table (IT), on source switches: per-flow packet counts of
//     the current and previous epoch; the first packet of each epoch is
//     marked as telemetry, so only one is marked per flow per epoch.
//   - Egress Table (ET), on sink switches: per-(PathID, FlowID) packet and
//     byte counts per epoch.
//   - Ring Table (RT), on sink switches: fixed-size ring of per-telemetry-
//     packet records (latency, counts, queue depth, epoch gap) that the
//     control plane drains on demand for diagnosis.
//
// The paper stores only the "other half" of the FlowID on each edge switch
// (s_sink on the source, s_source on the sink), and so do these tables:
// each is a vector indexed by that switch id, grown on demand, so a packet
// costs one indexed access and no hash probe.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "telemetry/epoch.hpp"
#include "util/ring_buffer.hpp"

namespace mars::telemetry {

/// Ingress Table: lives on every source switch, one entry per sink.
class IngressTable {
 public:
  explicit IngressTable(sim::Time epoch_period = kDefaultEpochPeriod)
      : period_(epoch_period) {}

  /// Count one packet of the flow to `sink` at time `now`, rolling the
  /// flow's epoch window forward when `now` enters a new epoch. The first
  /// packet of each epoch is the flow's one telemetry packet (§4.2.1): for
  /// it, returns the flow's packet count in the previous epoch (the value
  /// the telemetry header carries); nullopt for every other packet.
  std::optional<std::uint32_t> count_packet(net::SwitchId sink,
                                            sim::Time now);

 private:
  struct FlowEntry {
    EpochId epoch = 0;                  ///< epoch of `current_count`
    std::uint32_t current_count = 0;
    std::uint32_t previous_count = 0;   ///< count in `epoch - 1` (0 if stale)
  };

  sim::Time period_;
  std::vector<FlowEntry> flows_;  ///< indexed by sink switch id
};

/// Egress Table: per-(PathID, FlowID) counters on sink switches, one slot
/// per source holding that flow's few per-path entries.
class EgressTable {
 public:
  explicit EgressTable(sim::Time epoch_period = kDefaultEpochPeriod)
      : period_(epoch_period) {}

  struct PathCounters {
    std::uint32_t packets = 0;
    std::uint64_t bytes = 0;
  };

  /// Count one packet of the flow from `source` on `path_id` at `now`.
  /// Returns that path's counters for the epoch containing `now`, this
  /// packet included.
  PathCounters count_packet(net::SwitchId source, std::uint32_t path_id,
                            std::uint32_t bytes, sim::Time now);

  /// Packets of the flow from `source`, summed over all paths, in the
  /// epoch containing `now`.
  [[nodiscard]] std::uint32_t flow_current_packets(net::SwitchId source,
                                                   sim::Time now) const;
  /// Same for the previous epoch.
  [[nodiscard]] std::uint32_t flow_previous_packets(net::SwitchId source,
                                                    sim::Time now) const;

  /// Per-path packet counts of the flow from `source` in the epoch
  /// containing `now` (current + previous epoch summed, so a path sampled
  /// in either stays visible). Sorted by path id for determinism.
  struct FlowPathCount {
    std::uint32_t path_id = 0;
    std::uint32_t packets = 0;
  };
  [[nodiscard]] std::vector<FlowPathCount> flow_path_counts(
      net::SwitchId source, sim::Time now) const;

 private:
  struct Entry {
    std::uint32_t path_id = 0;
    EpochId epoch = 0;        ///< epoch of `current`
    PathCounters current;
    PathCounters previous;    ///< counters of `epoch - 1` (zero if stale)
  };
  /// One flow's entries, sorted by path id.
  using Slot = std::vector<Entry>;

  [[nodiscard]] const Slot* slot(net::SwitchId source) const {
    return source < flows_.size() ? &flows_[source] : nullptr;
  }

  sim::Time period_;
  std::vector<Slot> flows_;  ///< indexed by source switch id
};

/// One Ring Table record, extracted from a telemetry packet at the sink.
struct RtRecord {
  net::FlowId flow;
  std::uint32_t path_id = 0;
  EpochId epoch_id = 0;            ///< epoch id carried by the packet
  sim::Time source_timestamp = 0;  ///< ingress time at the source switch
  sim::Time sink_timestamp = 0;    ///< extraction time at the sink
  sim::Time latency = 0;           ///< sink_timestamp - source_timestamp
  std::uint32_t total_queue_depth = 0;  ///< in-network sum over hops
  std::uint32_t src_last_epoch_count = 0;  ///< from the telemetry header
  std::uint32_t sink_last_epoch_count = 0; ///< ET count at the sink
  std::uint32_t path_epoch_packets = 0;    ///< path-level count, this epoch
  std::uint64_t path_epoch_bytes = 0;
  std::uint32_t flow_epoch_packets = 0;    ///< flow-level count, this epoch
  std::uint32_t epoch_gap = 0;  ///< gap to the previous telemetry epoch - 1
  /// Per-path packet counts of the flow around this epoch (from the
  /// Egress Table), capped at kMaxPaths entries. Complete counts — not
  /// just the sampled path — so the control plane can judge ECMP splits.
  static constexpr std::size_t kMaxPaths = 4;
  std::array<EgressTable::FlowPathCount, kMaxPaths> path_counts{};
  std::uint8_t path_count_n = 0;

  /// Serialized size when the control plane drains the record (diagnosis
  /// bandwidth accounting, Fig. 9). Timestamps are compressed to 4 bytes as
  /// in SpiderMon.
  static constexpr std::uint32_t kWireBytes =
      4 /*flow*/ + 4 /*path*/ + 4 /*epoch*/ + 4 /*latency*/ + 4 /*qdepth*/ +
      8 /*counts*/ + 6 /*path stats*/ + 2 /*gap*/ +
      kMaxPaths * 6 /*per-path counts*/;
};

/// Ring Table: newest-overwrites-oldest record store on sink switches.
class RingTable {
 public:
  explicit RingTable(std::size_t capacity = 1024) : ring_(capacity) {}

  void insert(const RtRecord& record) { ring_.push(record); }

  /// Records currently retained, oldest first (the control plane's
  /// diagnosis snapshot).
  [[nodiscard]] std::vector<RtRecord> snapshot() const {
    return ring_.snapshot();
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  void clear() { ring_.clear(); }

  /// SRAM register bytes this table occupies on-switch (Fig. 10 accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return capacity() * RtRecord::kWireBytes;
  }

 private:
  util::RingBuffer<RtRecord> ring_;
};

}  // namespace mars::telemetry
