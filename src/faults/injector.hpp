#pragma once
// Fault injection (paper §5.2) with ground-truth labels for evaluation.
//
// Five network scenarios:
//   micro-burst:            transient >1000 pps flow for ~1 s;
//   ECMP load imbalance:    a random switch's ECMP weights move from 1:1
//                           to 1:r, r ∈ [4, 10];
//   process-rate decrease:  a port's service rate drops below 100 pps;
//   delay:                  a port gains constant extra latency outside
//                           the queue (Chaosblade-style interface fault);
//   drop:                   a port drops packets with fixed probability.
//
// plus two telemetry (chaos) scenarios that degrade the monitoring system
// itself rather than the network — they raise a dial on the attached
// control::ControlChannel for the fault window:
//   notification-loss:      notification packets drop with a drawn
//                           severity;
//   read-outage:            per-switch Ring-Table reads fail with a drawn
//                           severity;
//
// plus the gray-failure family (intermittent / load-dependent / partial
// faults, see DESIGN.md "Gray failures"):
//   link-flap:              a seeded two-state Gilbert–Elliott process
//                           toggles the egress direction of one or more
//                           correlated ports of a switch down (100% loss)
//                           and back up in bursts; the whole transition
//                           timeline is drawn at injection time, so it is
//                           bit-identical at every shard count;
//   slow-drain:             a port's service rate degrades with its
//                           instantaneous queue occupancy — only
//                           manifests under load;
//   asymmetric-loss:        direction-dependent drop probability on one
//                           link (forward >> reverse);
//   load-gated-delay:       extra latency only while the queue is at or
//                           above a depth threshold.
//
// Gray injections additionally schedule per-window manifestation probes
// that read the fault-attributable PortCounters and record, per ground
// truth, the fraction of windows in which the fault actually perturbed
// traffic (GroundTruth::manifestation_ratio) — so grading can tell
// "missed" from "never manifested".
//
// Each network injection targets a location that actually carries traffic
// (picked from the background flows ALIVE at the injection time, so late
// events on long schedules stay non-vacuous), and schedules its own
// removal. Telemetry injections need a channel attached (attach_channel)
// and are skipped — visibly — without one.

#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/context.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workload/traffic_gen.hpp"

namespace mars::control {
class ControlChannel;
}  // namespace mars::control

namespace mars::obs {
class Counter;
}  // namespace mars::obs

namespace mars::faults {

enum class FaultKind : std::uint8_t {
  kMicroBurst,
  kEcmpImbalance,
  kProcessRateDecrease,
  kDelay,
  kDrop,
  kNotificationLoss,  ///< telemetry: drop controller notifications
  kReadOutage,        ///< telemetry: fail Ring-Table reads
  kLinkFlap,          ///< gray: Gilbert–Elliott bursty up/down on a port set
  kSlowDrain,         ///< gray: service rate degrades with queue occupancy
  kAsymmetricLoss,    ///< gray: direction-dependent drop on one link
  kLoadGatedDelay,    ///< gray: extra latency only above a depth threshold
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// True for the chaos kinds that degrade the telemetry channel instead of
/// the network. Telemetry faults are not localizable culprits: grading
/// never matches them (metrics::culprit_matches returns false).
[[nodiscard]] constexpr bool is_telemetry_fault(FaultKind kind) {
  return kind == FaultKind::kNotificationLoss ||
         kind == FaultKind::kReadOutage;
}

/// True for the intermittent / load-dependent / partial kinds. Gray
/// faults are localizable like the clean network kinds, but additionally
/// record a per-trial manifestation ratio.
[[nodiscard]] constexpr bool is_gray_fault(FaultKind kind) {
  return kind == FaultKind::kLinkFlap || kind == FaultKind::kSlowDrain ||
         kind == FaultKind::kAsymmetricLoss ||
         kind == FaultKind::kLoadGatedDelay;
}

/// Per-event gray-fault parameter overrides (the spec's per-fault "gray"
/// block). Unset fields fall back to the InjectorConfig defaults; any set
/// field on a non-gray kind is a validation error (FaultSchedule::
/// validate names the offending path).
struct GrayParams {
  // link-flap: Gilbert–Elliott mean burst lengths and the number of
  // correlated ports of the target switch that flap together.
  std::optional<double> flap_mean_up_ms;
  std::optional<double> flap_mean_down_ms;
  std::optional<int> flap_fanout;
  // asymmetric-loss: forward / reverse drop probabilities on the link.
  std::optional<double> loss_fwd;
  std::optional<double> loss_rev;
  // slow-drain: extra service microseconds per packet queued behind the
  // head.
  std::optional<double> drain_us_per_pkt;
  // load-gated-delay: arming queue depth and the gated latency.
  std::optional<std::uint32_t> gate_depth;
  std::optional<double> gate_delay_ms;

  [[nodiscard]] bool any_set() const {
    return flap_mean_up_ms || flap_mean_down_ms || flap_fanout || loss_fwd ||
           loss_rev || drain_us_per_pkt || gate_depth || gate_delay_ms;
  }
  friend bool operator==(const GrayParams&, const GrayParams&) = default;
};

/// What was actually injected — the label the localization metrics grade
/// culprit lists against.
struct GroundTruth {
  FaultKind kind = FaultKind::kDelay;
  net::SwitchId switch_id = net::kInvalidSwitch;  ///< culprit switch
  net::PortId port = 0;                           ///< for port faults
  net::FlowId flow{net::kInvalidSwitch, net::kInvalidSwitch};  ///< burst flow
  sim::Time start = 0;
  sim::Time duration = 0;
  /// Telemetry faults: the dial level applied (loss / failure probability
  /// in (0, 1]). Gray faults: the drawn magnitude (flap: expected down
  /// fraction; asym-loss: forward drop probability; slow-drain: µs per
  /// queued packet; gated-delay: delay in seconds).
  double severity = 0.0;

  // ---- gray-fault bookkeeping ----
  /// link-flap only: the drawn Gilbert–Elliott transition timeline,
  /// absolute times alternating down, up, down, up, ... — drawn entirely
  /// at injection time, so identical at every thread/shard count.
  std::vector<sim::Time> flap_transitions;
  /// Manifestation accounting, filled in by the injector's per-window
  /// probes as the simulation runs (gray kinds only; read it after the
  /// run — run_scenario re-reads the injector history into its truths).
  /// windows_total == 0 means "not probed" (clean kinds): the fault is
  /// on for its whole window and manifestation_ratio stays 1.
  std::uint32_t windows_total = 0;
  std::uint32_t windows_active = 0;
  /// Fraction of probe windows in which the fault perturbed traffic.
  double manifestation_ratio = 1.0;

  [[nodiscard]] std::string describe() const;
};

struct InjectorConfig {
  sim::Time duration = 1 * sim::kSecond;
  double burst_pps = 2500.0;          ///< > 1000 pps (paper), above line rate
  int imbalance_min = 4, imbalance_max = 10;  ///< ratio 1:r
  double process_rate_min = 50.0, process_rate_max = 90.0;  ///< < 100 pps
  sim::Time delay_min = 50 * sim::kMillisecond;
  sim::Time delay_max = 200 * sim::kMillisecond;
  double drop_prob_min = 0.3, drop_prob_max = 0.8;
  /// Telemetry-fault severity draws (dial levels on the control channel).
  double telemetry_loss_min = 0.5, telemetry_loss_max = 0.9;
  double read_outage_min = 0.5, read_outage_max = 0.9;
  // ---- gray-failure defaults (per-event GrayParams override these) ----
  /// link-flap: Gilbert–Elliott mean dwell times (exponential draws) and
  /// how many correlated ports of the target switch flap together.
  double flap_mean_up_ms = 120.0;
  double flap_mean_down_ms = 60.0;
  int flap_fanout = 2;
  /// asymmetric-loss: forward drop-probability draw range; reverse
  /// defaults to lossless unless the event's GrayParams say otherwise.
  double asym_loss_min = 0.3, asym_loss_max = 0.8;
  /// slow-drain: per-queued-packet service penalty draw range (µs).
  double slow_drain_min_us = 300.0, slow_drain_max_us = 900.0;
  /// load-gated-delay: queue depth that arms the gate (the delay itself
  /// is drawn from delay_min/delay_max like the clean delay fault). The
  /// default background matrix keeps queues shallow, so the gate must sit
  /// low enough that ordinary bursts cross it intermittently.
  std::uint32_t gate_depth = 3;
  /// Manifestation-probe cadence for gray faults: per window, the probe
  /// reads the fault-attributable PortCounters and records whether the
  /// fault perturbed traffic (GroundTruth::windows_active / _total).
  sim::Time manifestation_window = 100 * sim::kMillisecond;
};

struct FaultEvent;  // faults/schedule.hpp
struct FaultSchedule;

class FaultInjector {
 public:
  /// `obs` sinks, each optional:
  ///   - metrics: injections that found no viable target count in its
  ///     "faults.skipped" counter (a silent nullopt makes a vacuous trial
  ///     look like a graded one in sweep aggregates);
  ///   - log: one event per successful injection (with its ground truth)
  ///     and per skip.
  FaultInjector(net::Network& network, workload::TrafficGenerator& traffic,
                std::uint64_t seed, InjectorConfig config = {},
                obs::Context obs = {});

  /// Route telemetry faults (notification-loss, read-outage) onto this
  /// control channel. Without one, telemetry injections are skipped (a
  /// visible nullopt: counted and warned about).
  void attach_channel(control::ControlChannel* channel) {
    channel_ = channel;
  }

  /// Inject `kind` at absolute time `at`; removal is scheduled
  /// automatically. Returns the ground truth, or nullopt if no viable
  /// target exists (e.g. no active flows yet).
  std::optional<GroundTruth> inject(FaultKind kind, sim::Time at);

  /// Scheduled-event form: honours the event's duration override and
  /// pinned target. An event with neither is identical to
  /// inject(kind, at) — same RNG draws, same schedule.
  std::optional<GroundTruth> inject(const FaultEvent& event);

  /// Inject every event of a schedule, in order. Element i is the ground
  /// truth of event i (nullopt where no viable target existed).
  std::vector<std::optional<GroundTruth>> apply(const FaultSchedule& schedule);

  [[nodiscard]] const std::vector<GroundTruth>& injected() const {
    return history_;
  }

 private:
  /// Walk the routing decision chain of one active flow and return its
  /// switch-level path with the egress port at each non-sink hop.
  struct LoadedHop {
    net::SwitchId sw;
    net::PortId out;
  };
  struct LoadedPath {
    const workload::FlowSpec* spec = nullptr;
    std::vector<LoadedHop> hops;
  };
  /// Draw a flow alive at `at` (spec.start <= at < spec.stop) so late
  /// events on long schedules target a port that still carries traffic.
  [[nodiscard]] std::optional<LoadedPath> random_loaded_path(sim::Time at);

  std::optional<GroundTruth> inject_micro_burst(sim::Time at,
                                                sim::Time duration);
  std::optional<GroundTruth> inject_ecmp(sim::Time at, sim::Time duration,
                                         std::optional<net::SwitchId> target);
  std::optional<GroundTruth> inject_port_fault(
      FaultKind kind, sim::Time at, sim::Time duration,
      std::optional<net::SwitchId> target_switch,
      std::optional<net::PortId> target_port);
  std::optional<GroundTruth> inject_telemetry(FaultKind kind, sim::Time at,
                                              sim::Time duration);
  std::optional<GroundTruth> inject_gray(FaultKind kind, sim::Time at,
                                         sim::Time duration,
                                         std::optional<net::SwitchId> target_switch,
                                         std::optional<net::PortId> target_port,
                                         const GrayParams& gray);
  void schedule_ecmp_skew(net::SwitchId chooser, std::uint32_t ratio,
                          sim::Time at, sim::Time duration);
  void note_skipped(FaultKind kind, sim::Time at);

  /// One gray injection's watched counter set: the probe sums the
  /// kind-specific fault-attributable counters over these (switch, port)
  /// pairs each window and compares against the last snapshot.
  struct GrayWatch {
    std::size_t truth_index = 0;  ///< into history_
    FaultKind kind = FaultKind::kLinkFlap;
    std::vector<std::pair<net::SwitchId, net::PortId>> ports;
    std::uint64_t last = 0;  ///< counter sum at the previous probe
  };
  [[nodiscard]] std::uint64_t gray_counter_sum(const GrayWatch& watch) const;
  void schedule_probes(std::size_t watch_index, sim::Time at,
                       sim::Time duration);
  void probe_window(std::size_t watch_index);

  net::Network* network_;
  workload::TrafficGenerator* traffic_;
  util::Rng rng_;
  InjectorConfig config_;
  control::ControlChannel* channel_ = nullptr;
  obs::Counter* skipped_;
  obs::EventLog* log_;
  std::vector<GroundTruth> history_;
  std::vector<GrayWatch> watches_;  ///< stable: indices captured by probes
};

}  // namespace mars::faults
