#pragma once
// INT-MD (eMbed Data) export backend, per the INT 2.1 dataplane spec:
// marked packets carry a shim plus one 8-byte metadata entry per hop, so
// in-band cost grows with path length. Sinks pop the stack and retain the
// full per-hop detail next to the common RtRecord.
//
// The backend rides the pipeline's one-telemetry-packet-per-flow-per-epoch
// marking (optionally thinned by IntMdConfig::sample_every), so on a
// perfect channel its drained RtRecords are identical to the postcard
// backend's for the same seed — the differential test pins that. What
// differs is the accounted wire format (stack vs fixed header) and the
// extra hop-level evidence kept at sinks.
//
// One shard only: the in-flight hop stacks are keyed by packet id and
// written at every hop the packet crosses, so at two or more shards the
// shard threads would race on them (validate_scenario rejects that).

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "telemetry/backend.hpp"
#include "util/ring_buffer.hpp"

namespace mars::telemetry {

class IntMdBackend final : public TelemetryBackend {
 public:
  /// A drained record plus the hop stack its telemetry packet carried.
  struct StoredRecord {
    RtRecord rec;
    std::vector<IntMdHop> hops;
  };

  IntMdBackend(IntMdConfig config, std::size_t switch_count,
               std::size_t ring_capacity);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kIntMd;
  }

  void on_marked(net::SwitchContext& ctx, const net::Packet& pkt) override;
  void on_hop_enqueue(net::SwitchContext& ctx, const net::Packet& pkt,
                      net::PortId out, std::uint32_t queue_depth) override;
  [[nodiscard]] std::uint32_t on_hop_egress(net::SwitchContext& ctx,
                                            const net::Packet& pkt,
                                            net::PortId out,
                                            sim::Time hop_latency) override;
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt) override;
  void on_sink_record(net::SwitchContext& ctx, const net::Packet& pkt,
                      const RtRecord& rec) override;
  void on_epoch_rollover(net::SwitchId sw, EpochId epoch,
                         sim::Time now) override;

  [[nodiscard]] std::vector<RtRecord> drain(net::SwitchId sw) const override;
  [[nodiscard]] std::uint32_t record_wire_bytes() const override {
    return RtRecord::kWireBytes;
  }
  [[nodiscard]] std::size_t store_size(net::SwitchId sw) const override;
  [[nodiscard]] std::size_t store_capacity() const override {
    return ring_capacity_;
  }
  [[nodiscard]] BackendCounters counters() const override;

  /// Hop-level evidence retained at sink `sw`, oldest first.
  [[nodiscard]] std::vector<StoredRecord> records_with_hops(
      net::SwitchId sw) const {
    return state_[sw].ring.snapshot();
  }

 private:
  struct InFlight {
    std::vector<IntMdHop> hops;
    std::uint32_t pending_queue_depth = 0;
  };
  struct SwitchSlice {
    util::RingBuffer<StoredRecord> ring;
    BackendCounters counters;
    explicit SwitchSlice(std::size_t capacity) : ring(capacity) {}
  };

  IntMdConfig config_;
  std::size_t ring_capacity_;
  std::vector<SwitchSlice> state_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t sample_counter_ = 0;
};

}  // namespace mars::telemetry
