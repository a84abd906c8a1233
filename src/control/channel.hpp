#pragma once
// ControlChannel: the (imperfect) wire between the data plane and the
// controller.
//
// The seed repo assumed a perfect control channel: every notification
// packet reached the controller and every Ring-Table drain returned a
// complete, uncorrupted snapshot instantly. Real deployments are not so
// kind — notification packets are dropped by the very congestion they
// report, P4Runtime reads time out under switch-CPU pressure, and
// register reads race the data plane writing them. This class sits
// between dataplane::MarsPipeline and control::Controller and models all
// of it, per a seeded ChannelConfig:
//
//   notification path:  drop with probability `notification_loss`; delay
//                       with probability `notification_delay_prob` by a
//                       uniform draw in [delay_min, delay_max] (delays
//                       reorder naturally through the event queue);
//   ring-read path:     a whole per-switch read fails (times out) with
//                       probability `read_failure`; surviving reads lose
//                       each record with probability `record_loss`
//                       (partial snapshot) and bit-corrupt each record
//                       with probability `record_corruption`.
//
// Determinism contract: a channel with a perfect() config draws NO random
// numbers, schedules NO events, and forwards everything synchronously —
// a perfectly-configured run is bit-identical to one without a channel at
// all (the golden-fingerprint tests pin this). Degraded channels are
// deterministic in their seed: same seed, same drops, same corrupted
// bits.
//
// Scheduled chaos: FaultSchedule telemetry events (notification-loss
// bursts, read outages) land here through schedule_degradation(), which
// raises one dial for a window and restores it afterwards — mid-run
// telemetry faults compose with any static degradation.

#include <cstdint>
#include <functional>
#include <vector>

#include "dataplane/mars_pipeline.hpp"
#include "obs/context.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"
#include "telemetry/tables.hpp"
#include "util/rng.hpp"

namespace mars::control {

struct ChannelConfig {
  /// Probability a notification packet never reaches the controller.
  double notification_loss = 0.0;
  /// Probability a (surviving) notification is delayed instead of
  /// delivered synchronously.
  double notification_delay_prob = 0.0;
  sim::Time notification_delay_min = 1 * sim::kMillisecond;
  sim::Time notification_delay_max = 50 * sim::kMillisecond;
  /// Probability a per-switch Ring-Table read fails outright (timeout).
  double read_failure = 0.0;
  /// Per-record probability of being lost from a surviving read
  /// (truncated drain / partial snapshot).
  double record_loss = 0.0;
  /// Per-record probability of in-flight bit corruption. Some corrupted
  /// fields violate the record's internal consistency and are caught by
  /// the controller's quarantine checks; others are plausible garbage and
  /// slip through — exactly like real memory corruption under a weak
  /// checksum.
  double record_corruption = 0.0;
  /// Chaos RNG stream seed; trial runners mix the trial seed in so sweeps
  /// decorrelate.
  std::uint64_t seed = 0xC7A05C7A05ull;

  /// True when this config cannot perturb anything; the channel then
  /// never touches its RNG or the simulator.
  [[nodiscard]] bool perfect() const {
    return notification_loss <= 0.0 && notification_delay_prob <= 0.0 &&
           read_failure <= 0.0 && record_loss <= 0.0 &&
           record_corruption <= 0.0;
  }
};

/// Everything the channel did to the traffic crossing it (exported as
/// "mars.channel.*" gauges).
struct ChannelStats {
  std::uint64_t notifications_offered = 0;
  std::uint64_t notifications_dropped = 0;
  std::uint64_t notifications_delayed = 0;
  std::uint64_t reads_attempted = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t records_lost = 0;
  std::uint64_t records_corrupted = 0;
  /// Scheduled telemetry-fault windows applied (degrade + restore pairs).
  std::uint64_t scheduled_faults = 0;
};

/// Controller-side sanity gate for drained records. A genuine RtRecord is
/// internally consistent: latency == sink - source, timestamps ordered
/// and in the past, path fan-out within bounds. Corruption that breaks
/// any of these is quarantined; corruption that preserves them is
/// undetectable by construction (documented residual risk).
[[nodiscard]] bool plausible_record(const telemetry::RtRecord& rec,
                                    sim::Time now);

class ControlChannel {
 public:
  using DeliverFn = std::function<void(const dataplane::Notification&)>;

  /// Dials schedule_degradation can raise for a window (the FaultSchedule
  /// telemetry-fault kinds map onto these).
  enum class Dial : std::uint8_t {
    kNotificationLoss,
    kReadFailure,
    kRecordCorruption,
  };

  /// `obs.log` (optional) gets one event at each degradation-window edge
  /// (raise / restore). Logging happens inside the already-scheduled
  /// window events, so attachment never changes the event schedule.
  ControlChannel(sim::Simulator& simulator,
                 dataplane::MarsPipeline& pipeline, ChannelConfig config,
                 obs::Context obs = {});

  /// Wire the controller side. Must be set before the first offer().
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Data-plane side entry point: maybe drop, maybe delay, else deliver
  /// synchronously. Perfect channels always deliver synchronously.
  void offer(const dataplane::Notification& n);

  /// One Ring-Table read attempt against `sw`.
  struct ReadResult {
    bool ok = false;  ///< false: the read timed out, records is empty
    std::vector<telemetry::RtRecord> records;
  };
  [[nodiscard]] ReadResult read_ring(net::SwitchId sw);

  /// Raise `dial` to max(current, severity) over [at, at + duration),
  /// restoring the pre-window value afterwards. Virtual-time scheduled,
  /// deterministic.
  void schedule_degradation(Dial dial, double severity, sim::Time at,
                            sim::Time duration);

  [[nodiscard]] static const char* dial_name(Dial dial);

  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

 private:
  [[nodiscard]] double& dial_value(Dial dial);
  void corrupt_record(telemetry::RtRecord& rec);

  sim::Simulator* simulator_;
  dataplane::MarsPipeline* pipeline_;
  ChannelConfig config_;
  DeliverFn deliver_;
  util::Rng rng_;
  ChannelStats stats_;
  obs::EventLog* log_;
};

}  // namespace mars::control
