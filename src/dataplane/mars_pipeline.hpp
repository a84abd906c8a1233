#pragma once
// The MARS P4 data plane (paper §4.2), as a PacketObserver over the
// simulated network. Per switch it implements:
//
//   source switch:  Ingress Table counting, PathID field insertion,
//                   one-telemetry-packet-per-flow-per-epoch marking;
//   every switch:   per-hop PathID update (CRC over {PathID, switch,
//                   in port, out port, control}), INT queue-depth
//                   accumulation, in-switch latency-threshold checks that
//                   set the anomaly-suppression flag in-band;
//   sink switch:    Egress Table counting, telemetry extraction into the
//                   Ring Table, drop detection (count mismatch + epoch
//                   gap), the latency persistence streak, notifications
//                   behind a per-reporter window, INT header removal.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dataplane/notification.hpp"
#include "net/observer.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "telemetry/backend.hpp"
#include "telemetry/path_id.hpp"
#include "telemetry/tables.hpp"

namespace mars::dataplane {

struct PipelineConfig {
  telemetry::PathIdConfig path_id;
  /// Which export backend carries telemetry off the data plane (postcard
  /// ring tables, INT-MD stacks, or in-switch histograms) — see
  /// telemetry/backend.hpp. The common pipeline (tables, PathID, marking,
  /// detection, notifications) is backend-invariant.
  telemetry::BackendConfig backend;
  sim::Time epoch_period = telemetry::kDefaultEpochPeriod;
  /// At most one notification per window names a given reporting switch
  /// (paper §4.2.2: one per switch per window). The sink issues every
  /// notification, so it keeps the window per reporter: one flagging
  /// hop's window never throttles another's, nor the sink's own drop
  /// notifications. Short enough that a congestion fault's HighLatency
  /// and Drop notifications both surface within one controller
  /// collection period.
  sim::Time notification_window = 150 * sim::kMillisecond;
  /// Count-mismatch tolerance: packets in flight across an epoch boundary
  /// make c_s and c_d differ by a few even when nothing dropped. The
  /// effective threshold is max(absolute, relative * c_s).
  std::uint32_t drop_count_threshold = 3;
  double drop_count_relative = 0.2;
  /// Consecutive mismatched epochs required before a Drop notification;
  /// filters the one-epoch deficit a pure delay fault produces.
  std::uint32_t drop_persistence = 2;
  /// Consecutive over-threshold telemetry packets of a flow required
  /// before a HighLatency notification; one-epoch ambient spikes pass,
  /// real faults persist.
  std::uint32_t latency_persistence = 2;
  std::size_t ring_capacity = 1024;
  /// Threshold used for flows the controller has not yet configured.
  sim::Time default_threshold = 10 * sim::kSecond;
};

/// Cumulative data-plane overhead counters (Fig. 9 accounting).
struct PipelineOverheads {
  std::uint64_t telemetry_bytes = 0;   ///< INT/PathID bytes crossing links
  std::uint64_t notifications = 0;
  std::uint64_t notification_bytes = 0;
  std::uint64_t telemetry_packets_marked = 0;
  std::uint64_t latency_notifications = 0;
  std::uint64_t drop_notifications = 0;
  /// Notifications swallowed by the per-switch window.
  std::uint64_t window_suppressed = 0;
};

class MarsPipeline : public net::PacketObserver {
 public:
  using NotificationFn = std::function<void(const Notification&)>;

  /// `obs.metrics` (optional) gets each delivered telemetry packet's
  /// end-to-end latency in its "mars.telemetry_latency_ns" histogram. The
  /// histogram is shared by every sink, so pass metrics only when one
  /// thread runs every switch (one shard).
  MarsPipeline(std::size_t switch_count, PipelineConfig config,
               NotificationFn notify, obs::Context obs = {});

  // ---- control-plane facing API ----
  /// Install/replace a flow's dynamic latency threshold (P4Runtime write).
  void set_threshold(const net::FlowId& flow, sim::Time threshold);
  [[nodiscard]] sim::Time threshold(const net::FlowId& flow) const;
  /// Install the PathID conflict-resolution MAT computed by the registry.
  void set_control_mat(telemetry::ControlMat mat) { mat_ = std::move(mat); }

  [[nodiscard]] const telemetry::EgressTable& egress_table(
      net::SwitchId sw) const {
    return state_[sw].egress;
  }
  /// Drain a sink switch's export store for diagnosis; leaves it intact
  /// (reads are register reads, not resets).
  [[nodiscard]] std::vector<telemetry::RtRecord> ring_snapshot(
      net::SwitchId sw) const {
    return backend_->drain(sw);
  }
  /// Wire bytes the control plane pays per drained record (backend
  /// dependent; Fig. 9 diagnosis accounting).
  [[nodiscard]] std::uint32_t record_wire_bytes() const {
    return backend_->record_wire_bytes();
  }
  /// The export backend (occupancy gauges, backend-specific evidence).
  [[nodiscard]] const telemetry::TelemetryBackend& backend() const {
    return *backend_;
  }

  /// Merged across switches (counters are kept per switch so shard
  /// threads never contend on them).
  [[nodiscard]] PipelineOverheads overheads() const;
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  // ---- PacketObserver ----
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override;
  void on_enqueue(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                  std::uint32_t queue_depth) override;
  void on_egress(net::SwitchContext& ctx, net::Packet& pkt, net::PortId out,
                 sim::Time hop_latency) override;
  void on_deliver(net::SwitchContext& ctx, net::Packet& pkt) override;
  void on_drop(net::SwitchContext& ctx, const net::Packet& pkt,
               net::PortId out) override;

 private:
  struct SwitchState {
    telemetry::IngressTable ingress;
    telemetry::EgressTable egress;
    /// Time of the last notification this switch sent per reporter (the
    /// notification window, see PipelineConfig::notification_window).
    std::unordered_map<net::SwitchId, sim::Time> last_notification;
    /// Latest telemetry epoch this switch has locally observed; advances
    /// drive TelemetryBackend::on_epoch_rollover.
    telemetry::EpochId last_epoch = 0;
    /// Per-flow telemetry epoch last seen at this sink (epoch-gap check).
    std::unordered_map<net::FlowId, telemetry::EpochId> last_seen_epoch;
    /// Consecutive count-mismatch epochs per flow (drop persistence).
    std::unordered_map<net::FlowId, std::uint32_t> mismatch_streak;
    /// Consecutive flagged telemetry packets per flow, kept at the flow's
    /// sink in delivery order (see maybe_check_latency).
    std::unordered_map<net::FlowId, std::uint32_t> sink_latency_streak;
    /// Per-switch slice of the overhead counters (merged by overheads()).
    PipelineOverheads overheads;

    explicit SwitchState(sim::Time period) : ingress(period), egress(period) {}
  };

  void maybe_check_latency(net::SwitchContext& ctx, net::Packet& pkt,
                           bool at_sink);
  void notify(net::SwitchContext& ctx, Notification n);
  /// Fire the backend rollover hook when `sw`'s local epoch advances.
  void observe_epoch(net::SwitchId sw, sim::Time now);

  PipelineConfig config_;
  NotificationFn notify_fn_;
  std::unique_ptr<telemetry::TelemetryBackend> backend_;
  std::vector<SwitchState> state_;
  telemetry::ControlMat mat_;
  std::unordered_map<net::FlowId, sim::Time> thresholds_;
  /// Null when detached: one untaken branch per delivery.
  obs::LogHistogram* latency_hist_;
};

}  // namespace mars::dataplane
