#pragma once
// IntSight (Marques et al., CoNEXT'20) — reimplementation of its
// diagnosis-relevant subset, as characterized in MARS §3/§5.4:
//
//   - a large per-packet INT header (33 bytes) carrying e2e delay and a
//     per-switch contention bitmap (48-bit path map), carried in
//     Packet::intsight_contention;
//   - a switch marks its bit when the packet's queueing delta there
//     exceeds a static contention threshold;
//   - the sink checks a static per-flow SLO on e2e latency and, at most
//     once per epoch, sends a conditional flow report to the controller;
//   - flow-level drop detection by comparing per-epoch end-to-end counts;
//     it cannot localize drops to a switch or port.
//
// Reproduced limitations: static thresholds; contention points only track
// queueing (delay faults mark nothing); reports aggregate poorly into a
// ranked metric, so its recall improves only near Top-5.

#include <unordered_map>
#include <vector>

#include "baselines/baseline.hpp"
#include "net/types.hpp"
#include "telemetry/epoch.hpp"

namespace mars::baselines {

struct IntSightConfig {
  /// Static per-flow SLO on end-to-end latency.
  sim::Time slo = 10 * sim::kMillisecond;
  /// A hop marks its contention bit above this queueing delta.
  sim::Time contention_threshold = 1 * sim::kMillisecond;
  sim::Time epoch_period = telemetry::kDefaultEpochPeriod;
  std::uint32_t header_bytes = 33;
  std::uint32_t report_bytes = 24;
  std::size_t max_culprits = 20;
};

class IntSight final : public BaselineSystem {
 public:
  explicit IntSight(IntSightConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "IntSight"; }
  [[nodiscard]] rca::CulpritList diagnose() override;
  [[nodiscard]] OverheadReport overheads() const override;
  [[nodiscard]] bool triggered() const override { return !reports_.empty(); }

  /// Flow reports emitted so far (inspection/tests).
  struct FlowReport {
    net::FlowId flow;
    telemetry::EpochId epoch = 0;
    std::uint64_t contention_mask = 0;  ///< bit per switch id (48-bit map)
    std::uint32_t violations = 0;
    std::uint32_t packets = 0;
    std::uint32_t dropped_estimate = 0;
  };
  [[nodiscard]] const std::vector<FlowReport>& reports() const {
    return reports_;
  }

  // ---- PacketObserver ----
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override;
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;
  void on_deliver(net::SwitchContext& ctx, net::Packet& pkt) override;

 private:
  struct EpochState {
    telemetry::EpochId epoch = 0;
    std::uint64_t contention_mask = 0;
    std::uint32_t violations = 0;
    std::uint32_t packets = 0;
  };
  struct EpochCount {
    telemetry::EpochId epoch = 0;
    std::uint32_t count = 0;
    std::uint32_t previous = 0;
  };
  /// Everything the source and the sink switch keep about one flow.
  struct FlowState {
    EpochState sink;           ///< SLO violations in the sink's epoch
    EpochCount source_count;   ///< packets entering at the source
    EpochCount sink_count;     ///< packets delivered at the sink
  };

  void flush(const net::FlowId& flow, EpochState& state);

  IntSightConfig config_;
  std::unordered_map<net::FlowId, FlowState> flows_;
  std::vector<FlowReport> reports_;
  OverheadReport overheads_;
};

}  // namespace mars::baselines
