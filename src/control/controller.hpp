#pragma once
// MARS control plane (paper §4.3–4.4 workflow):
//
//   - periodically polls the "latency" field of edge-switch Ring Tables
//     (P4Runtime reads), feeds per-flow reservoirs, and installs the
//     resulting dynamic thresholds back into the data plane;
//   - on a data-plane notification (rate-limited per window), drains the
//     Ring Tables of all *edge* switches into a DiagnosisData bundle and
//     hands it to the registered diagnosis callback (the RCA engine);
//   - accounts every byte moved from the data plane to the control plane
//     (diagnosis overhead, Fig. 9).
//
// Hardened against a degraded control channel (control/channel.hpp):
//   - Ring-Table reads can fail; a failed poll read falls back to the
//     stale thresholds and leaves the poll watermark untouched, so missed
//     records are caught up on the next successful poll;
//   - a failed drain read during a diagnosis collection is retried in
//     bounded, exponentially backed-off rounds (deterministic, virtual
//     time); switches still failing after the last round are abandoned
//     and the session proceeds on partial data;
//   - drained records pass range/consistency quarantine checks before
//     entering the session (corrupt telemetry must not poison the RCA
//     engine or the reservoirs);
//   - every session carries a CollectionQuality block (coverage,
//     quarantine counts, retry rounds) whose confidence() lets callers
//     distinguish a confident localization from a best-effort one.
// With no channel attached (or a perfect one) none of these paths run and
// behavior is bit-identical to the unhardened controller.

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "control/channel.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "detect/reservoir.hpp"
#include "net/network.hpp"
#include "obs/context.hpp"
#include "obs/event_log.hpp"
#include "obs/provenance.hpp"
#include "telemetry/tables.hpp"

namespace mars::control {

/// How complete the evidence behind one diagnosis session is. A perfect
/// collection has confidence() == 1; failed drains and quarantined
/// records lower it. Retries that eventually succeed cost time, not
/// confidence — the data is complete.
struct CollectionQuality {
  std::size_t switches_total = 0;    ///< edge switches the drain targeted
  std::size_t switches_drained = 0;  ///< drained OK (possibly after retry)
  std::uint64_t records_collected = 0;    ///< accepted into the session
  std::uint64_t records_quarantined = 0;  ///< failed sanity checks
  std::uint32_t retry_rounds = 0;         ///< backoff rounds this session

  /// Fraction of edge switches successfully drained (1 when none exist).
  [[nodiscard]] double coverage() const {
    return switches_total == 0
               ? 1.0
               : static_cast<double>(switches_drained) /
                     static_cast<double>(switches_total);
  }
  /// coverage x fraction of surviving records that passed quarantine.
  /// == 1 exactly when no observable degradation occurred (undetectably
  /// corrupted records are invisible here by definition).
  [[nodiscard]] double confidence() const {
    const std::uint64_t seen = records_collected + records_quarantined;
    const double clean = seen == 0
                             ? 1.0
                             : static_cast<double>(records_collected) /
                                   static_cast<double>(seen);
    return coverage() * clean;
  }
  [[nodiscard]] bool degraded() const {
    return switches_drained < switches_total || records_quarantined > 0;
  }
};

/// Everything the RCA engine receives for one diagnosis session.
struct DiagnosisData {
  dataplane::Notification trigger;
  /// Every notification that arrived between the trigger and collection
  /// (the trigger included). Congestion faults raise both HighLatency and
  /// Drop notifications; seeing the full set lets the analyzer pick the
  /// right pass instead of racing on which packet won.
  std::vector<dataplane::Notification> notifications;
  sim::Time collected_at = 0;

  [[nodiscard]] bool saw(dataplane::Notification::Kind kind) const {
    for (const auto& n : notifications) {
      if (n.kind == kind) return true;
    }
    return false;
  }
  /// Ring Table snapshots from all edge switches, concatenated (only
  /// records that survived the channel and the quarantine checks).
  std::vector<telemetry::RtRecord> records;
  /// Per-flow thresholds at collection time (classifies records into the
  /// abnormal/normal sets).
  std::unordered_map<net::FlowId, sim::Time> thresholds;
  sim::Time default_threshold = 10 * sim::kSecond;
  /// Evidence completeness for this session.
  CollectionQuality quality;
  /// Provenance node id of this session ("session:N") when a
  /// ProvenanceGraph is attached to the controller; empty otherwise.
  /// Downstream stages (RCA) parent their evidence nodes under it.
  std::string provenance_id;

  /// True if `rec` is in the abnormal set under the session thresholds.
  [[nodiscard]] bool is_abnormal(const telemetry::RtRecord& rec) const {
    const auto it = thresholds.find(rec.flow);
    const sim::Time thr =
        it != thresholds.end() ? it->second : default_threshold;
    return rec.latency > thr;
  }
};

struct ControllerConfig {
  sim::Time poll_interval = 100 * sim::kMillisecond;
  /// The control plane responds to at most one notification per window
  /// (paper §4.4).
  sim::Time response_window = 1 * sim::kSecond;
  /// Posterior collection: wait this long after the notification before
  /// draining the Ring Tables, so the anomaly's evidence (telemetry
  /// packets stuck behind the fault) has reached the sinks.
  sim::Time collection_delay = 500 * sim::kMillisecond;
  detect::ReservoirConfig reservoir;
  /// Bytes per polled latency sample (P4Runtime register read payload).
  std::uint32_t poll_sample_bytes = 4;

  // ---- degraded-channel hardening (no-ops when reads never fail) ----
  /// Virtual time a failed Ring-Table read burns before the failure is
  /// detected (the P4Runtime read deadline).
  sim::Time read_deadline = 20 * sim::kMillisecond;
  /// Failed drain reads are retried in up to this many backoff rounds
  /// before the session proceeds on partial data.
  std::uint32_t max_read_retries = 3;
  /// Base retry backoff; doubles every round (exponential, virtual-time).
  sim::Time retry_backoff = 25 * sim::kMillisecond;
};

/// Control-plane -> data-plane overhead accounting.
struct ControllerOverheads {
  std::uint64_t poll_bytes = 0;       ///< periodic latency reads
  std::uint64_t diagnosis_bytes = 0;  ///< RT drains on notifications
  std::uint64_t diagnoses = 0;
  std::uint64_t notifications_seen = 0;
  std::uint64_t notifications_suppressed = 0;
  // ---- degraded-channel accounting (all zero on a perfect channel) ----
  std::uint64_t poll_reads_failed = 0;  ///< stale-threshold fallbacks
  std::uint64_t drain_read_failures = 0;  ///< failed drain attempts
  std::uint64_t drain_retry_rounds = 0;   ///< backoff rounds scheduled
  std::uint64_t drains_abandoned = 0;   ///< switches given up per session
  std::uint64_t records_quarantined = 0;  ///< drain + poll sanity rejects
  std::uint64_t partial_sessions = 0;   ///< sessions with confidence < 1
};

class Controller {
 public:
  using DiagnosisFn = std::function<void(const DiagnosisData&)>;

  /// `obs` sinks, each optional:
  ///   - tracer: instants per notification, a virtual-time span for each
  ///     collection window, and wall-clock spans around poll and
  ///     ring-drain work;
  ///   - log: poll fallbacks, quarantines, drain retries/abandons, and
  ///     session summaries;
  ///   - provenance: each finalized session gets a session node plus
  ///     notification nodes, and DiagnosisData carries the session node
  ///     id for downstream stages.
  Controller(net::Network& network, dataplane::MarsPipeline& pipeline,
             ControllerConfig config, obs::Context obs = {});

  /// Begin periodic polling (schedules itself on the network's simulator).
  void start();

  /// Wire this to the pipeline's notification function.
  void on_notification(const dataplane::Notification& n);

  void set_diagnosis_callback(DiagnosisFn fn) { on_diagnosis_ = std::move(fn); }

  /// Route Ring-Table reads through a (possibly degraded) control
  /// channel. nullptr (the default) reads the pipeline directly — the
  /// perfect-channel fast path.
  void set_channel(ControlChannel* channel) { channel_ = channel; }

  [[nodiscard]] const ControllerOverheads& overheads() const {
    return overheads_;
  }
  [[nodiscard]] const std::vector<DiagnosisData>& sessions() const {
    return sessions_;
  }
  /// Number of per-flow reservoirs currently maintained.
  [[nodiscard]] std::size_t reservoir_count() const {
    return reservoirs_.size();
  }
  /// Mean fill fraction (size / volume) across all reservoirs; 0 if none.
  [[nodiscard]] double mean_reservoir_fill() const;

  /// One polling pass (normally driven by start(); exposed for tests).
  void poll_once();

 private:
  [[nodiscard]] std::vector<net::SwitchId> edge_switches() const;
  [[nodiscard]] ControlChannel::ReadResult read_ring(net::SwitchId sw);
  void collect_and_diagnose(const dataplane::Notification& n);
  void drain_round();
  void finalize_collection();

  net::Network* network_;
  dataplane::MarsPipeline* pipeline_;
  ControllerConfig config_;
  DiagnosisFn on_diagnosis_;
  ControlChannel* channel_ = nullptr;
  std::unordered_map<net::FlowId, detect::Reservoir> reservoirs_;
  /// Last RT record timestamp polled per edge switch (avoid re-reading).
  std::unordered_map<net::SwitchId, sim::Time> poll_watermark_;
  sim::Time last_response_ = -1;
  /// Notifications accumulated while a collection is pending.
  std::vector<dataplane::Notification> pending_;
  bool collection_pending_ = false;
  /// The in-flight collection: session under assembly plus the switches
  /// whose drain still has to succeed (retried across backoff rounds).
  struct Collection {
    DiagnosisData data;
    std::vector<net::SwitchId> remaining;
    std::uint32_t round = 0;
  };
  std::optional<Collection> collection_;
  std::vector<DiagnosisData> sessions_;
  ControllerOverheads overheads_;
  obs::Context obs_;
  std::uint64_t reservoir_seed_ = 0x7E5E4D01ull;
};

}  // namespace mars::control
