#pragma once
// The paper's export mode: every delivered telemetry packet becomes one
// RtRecord in the sink switch's Ring Table; in-band cost is the packet's
// actual monitoring overhead (PathID byte + 11-byte INT header on marked
// packets). This backend is the refactor's identity element — drains,
// byte accounting, and ring occupancy are bit-identical to the
// pre-backend pipeline.

#include <cstdint>
#include <vector>

#include "telemetry/backend.hpp"

namespace mars::telemetry {

class PostcardBackend final : public TelemetryBackend {
 public:
  PostcardBackend(std::size_t switch_count, std::size_t ring_capacity);

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kPostcard;
  }

  void on_marked(net::SwitchContext& ctx, const net::Packet& pkt) override;
  [[nodiscard]] std::uint32_t on_hop_egress(net::SwitchContext& ctx,
                                            const net::Packet& pkt,
                                            net::PortId out,
                                            sim::Time hop_latency) override;
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

 private:
  struct SwitchSlice {
    RingTable ring;
    BackendCounters counters;
    explicit SwitchSlice(std::size_t capacity) : ring(capacity) {}
  };

  std::size_t ring_capacity_;
  std::vector<SwitchSlice> state_;
};

}  // namespace mars::telemetry
