#pragma once
// ScenarioRunner: one fault-injection trial, end to end (paper §5.2–5.4).
//
// A trial is declarative: a topology picked from the TopologyRegistry by
// name, a set of telemetry systems picked from the SystemRegistry by name
// (MARS and the baselines deploy behind the same interface), background
// traffic, and a FaultSchedule of zero or more injections. run_scenario
// builds the fabric, deploys the named systems side by side on the same
// packets, warms the reservoirs, applies the schedule, and returns every
// system's ranked culprit list plus overhead accounting and the ground
// truths. Trials are deterministic in their seed, and independent trials
// can run on separate threads (each owns its engine and network); see
// mars/sweep.hpp for the batch driver.

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/intsight.hpp"
#include "baselines/spidermon.hpp"
#include "baselines/syndb.hpp"
#include "faults/injector.hpp"
#include "faults/schedule.hpp"
#include "mars/mars.hpp"
#include "metrics/ranking.hpp"
#include "net/topology_registry.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "workload/traffic_gen.hpp"

namespace mars {

/// Caller-owned observability bundle for one trial. When attached to a
/// ScenarioConfig, run_scenario scrapes the network and every deployed
/// system onto `registry`, runs a periodic Sampler into `series`, routes
/// the MARS pipeline/controller/RCA spans into `tracer`, and leaves a
/// final `snapshot` taken just before the scenario-scoped gauges are
/// removed (so the bundle stays safe to read after the trial).
///
/// Attaching observability schedules sampler events, so the trial's event
/// fingerprint differs from an unobserved run; the determinism contract
/// (same seed => same result) still holds for a fixed configuration.
struct Observability {
  obs::MetricsRegistry registry;
  obs::SpanTracer tracer;
  obs::SeriesStore series;
  /// Registry state at end-of-run (gauges still attached when taken).
  obs::MetricsSnapshot snapshot;
  /// Structured NDJSON event log (admission configured by
  /// ScenarioConfig::obs; empty when the trial logged nothing).
  obs::EventLog log;
  /// Black-box ring of recent events + metric deltas; dumps accumulate
  /// when a diagnosis aborts or completes below its confidence threshold.
  obs::FlightRecorder recorder;
  /// Diagnosis provenance DAG (populated when ScenarioConfig::obs
  /// .provenance is on and MARS is deployed).
  obs::ProvenanceGraph provenance;
};

struct ScenarioConfig {
  /// Fabric, resolved through net::TopologyRegistry by name. The default
  /// link rates model the paper's Mininet/BMv2 environment: software
  /// switches forward a few thousand pps, so links are Mbps-scale, with
  /// 2:1 edge-uplink oversubscription — the regime where a >1000 pps
  /// micro-burst exceeds line rate and a 1:9 ECMP skew pushes the loaded
  /// branch past capacity, as in Fig. 7.
  net::TopologySpec topology{.edge_gbps = 0.007, .core_gbps = 0.010};
  /// Per-port buffer in packets (Tofino-class buffers are far deeper than
  /// the BMv2 default; deep enough that process-rate faults queue rather
  /// than drop).
  std::uint32_t queue_capacity = 4096;
  workload::BackgroundConfig background;
  /// The fault schedule. The default is one process-rate fault after a
  /// healthy 3 s run-in (reservoir warm-up); an empty schedule is a
  /// healthy control run.
  faults::FaultSchedule faults = faults::FaultSchedule::single(
      faults::FaultKind::kProcessRateDecrease, 3 * sim::kSecond);
  sim::Time duration = 5 * sim::kSecond;  ///< total simulated time
  faults::InjectorConfig injector;
  std::uint64_t seed = 1;
  /// Telemetry systems to deploy, resolved through SystemRegistry by name
  /// and constructed in this order (MARS first keeps its pipeline the
  /// first packet observer, as the goldens were captured).
  std::vector<std::string> systems = {"mars", "spidermon", "intsight",
                                      "syndb"};
  MarsConfig mars;
  baselines::SpiderMonConfig spidermon;
  baselines::IntSightConfig intsight;
  baselines::SynDbConfig syndb;
  /// Optional observability bundle (nullptr = zero instrumentation
  /// overhead). Must outlive run_scenario.
  Observability* observability = nullptr;
  /// Sampler tick period when observability is attached.
  sim::Time sample_period = 100 * sim::kMillisecond;

  /// Ops-plane knobs (the spec's "obs" block). All of them are inert
  /// unless an Observability bundle is attached.
  struct ObsConfig {
    /// Admission floor for the structured event log.
    obs::LogLevel log_level = obs::LogLevel::kInfo;
    /// Per-(component, event) token-bucket rate limit, in events per
    /// simulated second, and its burst allowance.
    double log_rate_limit_per_s = 50.0;
    std::uint32_t log_rate_limit_burst = 16;
    /// Arm the flight recorder: ring capacity in events, and the session
    /// confidence below which a completed diagnosis dumps the ring.
    bool flight_recorder = false;
    std::size_t flight_capacity = 256;
    double flight_confidence_threshold = 0.8;
    /// Build the diagnosis provenance DAG (Observability::provenance).
    bool provenance = false;
  };
  ObsConfig obs;

  /// Event-engine settings (the spec's "sim" block). Every trial runs on
  /// the keyed sharded engine (net::Engine): one shard by default, up to
  /// 64, and a fixed seed gives the same execution at every shard count
  /// (pinned by the sharded golden fingerprints). A data-plane
  /// notification reaches the control plane one control_latency after it
  /// is sent. At shards >= 2 the shard threads run observer callbacks
  /// concurrently, so validate_scenario allows only state each switch
  /// owns: systems must be {"mars"} (the baselines keep cross-switch
  /// observer state), the backend must be postcard (int-md and histogram
  /// keep cross-switch stacks and digests), and the topology must offer
  /// enough partition components with positive boundary-link
  /// propagation.
  struct SimConfig {
    int shards = 1;
    /// Data-plane -> controller notification latency; also the ceiling
    /// of the conservative lookahead window.
    sim::Time control_latency = 1 * sim::kMillisecond;
  };
  SimConfig sim;

  /// Start of the first scheduled fault — the grading boundary. An empty
  /// schedule returns `duration` (nothing to grade after the run).
  [[nodiscard]] sim::Time first_fault_at() const {
    return faults.empty() ? duration : faults.events.front().at;
  }
};

/// The sinks a trial's components get: every sink of `bundle`, but
/// provenance and the flight recorder only when `flags` switch them on;
/// all null when `bundle` is. run_scenario and the "mars" factory take
/// their sinks from here and nowhere else.
[[nodiscard]] obs::Context trial_context(
    Observability* bundle, const ScenarioConfig::ObsConfig& flags);

/// Everything wrong with a config, as descriptive sentences; empty means
/// run_scenario will accept it.
[[nodiscard]] std::vector<std::string> validate_scenario(
    const ScenarioConfig& config);

/// One deployed system's graded trial outcome.
struct SystemOutcome {
  std::string system;  ///< registry name ("mars", "spidermon", ...)
  rca::CulpritList culprits;
  /// Rank of the FIRST ground truth in `culprits`, 1-based (the Table-1
  /// number for single-fault trials).
  std::optional<std::size_t> rank;
  /// Rank of every ground truth, index-aligned with ScenarioResult::truths.
  std::vector<std::optional<std::size_t>> ranks;
  std::uint64_t telemetry_bytes = 0;
  std::uint64_t diagnosis_bytes = 0;
  bool triggered = false;
  /// Evidence completeness behind the culprit list, in [0, 1]: 1 means no
  /// observed telemetry degradation; nullopt when the system never
  /// diagnosed (or does not model a degradable channel).
  std::optional<double> confidence;
  /// Fraction of diagnosis windows the top suspect appeared in (multi-
  /// epoch accumulation only — nullopt otherwise). Below 1 flags an
  /// intermittent culprit; confidence is already discounted by it.
  std::optional<double> presence;
  /// The trial's provenance DAG (points into the caller's Observability
  /// bundle; non-null only for systems that produce provenance — MARS —
  /// when ScenarioConfig::obs.provenance is on).
  const obs::ProvenanceGraph* provenance = nullptr;
};

struct ScenarioResult {
  /// Ground truth per successfully injected fault, schedule order.
  std::vector<faults::GroundTruth> truths;
  /// True when the schedule was non-empty and EVERY event found a viable
  /// target.
  bool fault_injected = false;
  /// One outcome per deployed system, in ScenarioConfig::systems order.
  std::vector<SystemOutcome> systems;
  net::NetworkStats net_stats;
  std::uint64_t packets_injected = 0;
  /// Total simulator events executed — a fingerprint of the event
  /// schedule. Identical seeds must produce identical values regardless of
  /// event-queue internals (determinism contract, see DESIGN.md).
  std::uint64_t events_executed = 0;

  /// First ground truth (single-fault convenience). Requires
  /// fault_injected.
  [[nodiscard]] const faults::GroundTruth& truth() const {
    return truths.at(0);
  }
  /// Outcome of the named system, or nullptr when it was not deployed.
  [[nodiscard]] const SystemOutcome* find(std::string_view system) const {
    for (const auto& outcome : systems) {
      if (outcome.system == system) return &outcome;
    }
    return nullptr;
  }
  /// Outcome of the named system; throws std::out_of_range if absent.
  [[nodiscard]] const SystemOutcome& outcome(std::string_view system) const {
    const SystemOutcome* found = find(system);
    if (found == nullptr) {
      throw std::out_of_range("system '" + std::string(system) +
                              "' was not deployed in this scenario");
    }
    return *found;
  }
};

/// Run one trial. Deterministic in config.seed. Throws
/// std::invalid_argument (with every validate_scenario sentence) on an
/// invalid config.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// Sensible defaults matching the paper's setup (§5.1–5.2): K=4 fat-tree,
/// ~200 pps background flows, 100 ms epochs, one `fault` injection at 3 s.
[[nodiscard]] ScenarioConfig default_scenario(faults::FaultKind fault,
                                              std::uint64_t seed);

}  // namespace mars
