// End-to-end ops plane: the diagnosis provenance DAG is closed (no
// dangling refs, every suspect reachable from an abnormal epoch) and
// attributes the injected fault to a ranked suspect on every clean fault
// kind; the structured event log captures the trial lifecycle; the flight
// recorder dumps on a low-confidence lossy-telemetry diagnosis; and every
// emitting component reaches the sinks a trial attaches, at one shard and
// at two.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"
#include "obs/json_reader.hpp"
#include "provenance_queries.hpp"

namespace mars {
namespace {

using NodeKind = obs::ProvenanceGraph::NodeKind;
using test_support::find_node;
using test_support::nodes_of;
using test_support::reachable_from;
using test_support::validate;

ScenarioConfig mars_only(faults::FaultKind kind, std::uint64_t seed) {
  ScenarioConfig cfg = default_scenario(kind, seed);
  cfg.systems = {"mars"};
  cfg.obs.provenance = true;
  return cfg;
}

bool reachable_contains(const std::vector<std::string>& reached,
                        const std::string& id) {
  return std::find(reached.begin(), reached.end(), id) != reached.end();
}

class ProvenanceFaultTest
    : public ::testing::TestWithParam<faults::FaultKind> {};

TEST_P(ProvenanceFaultTest, GraphIsClosedAndAttributesTheFault) {
  bool attributed = false;
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    Observability obs;
    ScenarioConfig cfg = mars_only(GetParam(), seed);
    cfg.observability = &obs;
    const ScenarioResult result = run_scenario(cfg);
    if (!result.fault_injected) continue;

    const SystemOutcome& outcome = result.outcome("mars");
    ASSERT_EQ(outcome.provenance, &obs.provenance);
    const obs::ProvenanceGraph& g = obs.provenance;

    // Closure: every edge endpoint resolves, and every ranked suspect is
    // evidence-backed — reachable from at least one abnormal epoch.
    EXPECT_TRUE(validate(g).empty());
    if (!outcome.culprits.empty()) {
      EXPECT_FALSE(nodes_of(g, NodeKind::kEpoch).empty());
      const auto reached = reachable_from(g, NodeKind::kEpoch);
      for (const auto* suspect : nodes_of(g, NodeKind::kSuspect)) {
        EXPECT_TRUE(reachable_contains(reached, suspect->id))
            << suspect->id << " not reachable from any abnormal epoch";
      }
    }

    // One fault node per scheduled injection, regardless of diagnosis.
    EXPECT_EQ(nodes_of(g, NodeKind::kFault).size(), result.truths.size());

    // Attribution: when MARS ranked the truth, a fault node carries a
    // "manifested_as" edge to a suspect annotated with that final rank.
    if (!outcome.rank.has_value()) continue;
    for (const auto& edge : g.edges()) {
      if (edge.relation != "manifested_as") continue;
      const obs::ProvenanceGraph::Node* to = find_node(g, edge.to);
      ASSERT_NE(to, nullptr);
      EXPECT_EQ(to->kind, NodeKind::kSuspect);
      for (const auto& field : to->fields) {
        if (field.key == "final_rank" &&
            static_cast<std::uint64_t>(field.number) == *outcome.rank) {
          attributed = true;
        }
      }
    }
    if (attributed) break;  // one attributed seed per kind is the contract
  }
  EXPECT_TRUE(attributed)
      << "no seed produced a fault-attributed ranked suspect";
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, ProvenanceFaultTest,
    ::testing::Values(faults::FaultKind::kMicroBurst,
                      faults::FaultKind::kEcmpImbalance,
                      faults::FaultKind::kProcessRateDecrease,
                      faults::FaultKind::kDelay, faults::FaultKind::kDrop),
    [](const auto& info) {
      std::string name{faults::to_string(info.param)};
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScenarioProvenanceTest, GraphExportIsDeterministic) {
  auto render = [] {
    Observability obs;
    ScenarioConfig cfg =
        mars_only(faults::FaultKind::kProcessRateDecrease, 11);
    cfg.observability = &obs;
    (void)run_scenario(cfg);
    std::ostringstream out;
    obs.provenance.write_json(out);
    return out.str();
  };
  const std::string a = render();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, render());
}

TEST(ScenarioProvenanceTest, DisabledProvenanceLeavesGraphEmpty) {
  Observability obs;
  ScenarioConfig cfg =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 11);
  cfg.systems = {"mars"};
  cfg.observability = &obs;  // obs on, provenance off
  const ScenarioResult result = run_scenario(cfg);
  EXPECT_TRUE(obs.provenance.empty());
  EXPECT_EQ(result.outcome("mars").provenance, nullptr);
}

TEST(ScenarioProvenanceTest, EventLogCapturesTrialLifecycle) {
  Observability obs;
  ScenarioConfig cfg =
      mars_only(faults::FaultKind::kProcessRateDecrease, 11);
  cfg.obs.log_level = obs::LogLevel::kDebug;
  cfg.observability = &obs;
  (void)run_scenario(cfg);

  auto has = [&](const char* component, const char* event) {
    for (const auto& e : obs.log.events()) {
      if (e.component == component && e.event == event) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("scenario", "start"));
  EXPECT_TRUE(has("scenario", "complete"));
  EXPECT_TRUE(has("injector", "fault_injected"));
  EXPECT_TRUE(has("mars", "diagnosis_complete"));
}

TEST(ScenarioProvenanceTest, FlightRecorderDumpsOnLossyLowConfidence) {
  // The lossy-telemetry chaos scenario (scenarios/lossy_telemetry.json)
  // completes its diagnosis with confidence ~0.99; a threshold of 1.0
  // makes any degradation-lowered confidence dump the black box.
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "lossy-flight",
    "topology": {"name": "fat-tree", "k": 4},
    "seed": 7,
    "systems": ["mars"],
    "channel": {
      "notification_loss": 0.2,
      "read_failure": 0.1,
      "record_loss": 0.05,
      "record_corruption": 0.02
    },
    "faults": [{"kind": "rate", "at_s": 3.0}],
    "obs": {
      "log_level": "debug",
      "flight_recorder": {"enabled": true, "confidence_threshold": 1.0}
    }
  })");
  ASSERT_TRUE(validate_scenario(spec.to_config()).empty());

  Observability obs;
  ScenarioConfig cfg = spec.to_config();
  cfg.observability = &obs;
  const ScenarioResult result = run_scenario(cfg);
  ASSERT_TRUE(result.fault_injected);

  EXPECT_GE(obs.recorder.triggers_total(), 1u);
  ASSERT_FALSE(obs.recorder.dumps().empty());
  const auto& dump = obs.recorder.dumps().front();
  EXPECT_EQ(dump.reason, "low_confidence");
  EXPECT_FALSE(dump.events.empty());

  // The degraded channel leaves its marks in the retained log too: the
  // controller logs its read failures / quarantines at warn.
  bool degradation_logged = false;
  for (const auto& e : obs.log.events()) {
    if (e.component == "controller" && e.level == obs::LogLevel::kWarn) {
      degradation_logged = true;
    }
  }
  EXPECT_TRUE(degradation_logged);
}

// One trial with every sink attached: a data fault, a telemetry fault
// (its degradation window is the channel's only log source; the read
// outage covers the fault's collection, so that session is degraded),
// provenance, the flight recorder at a threshold any degraded session
// falls under, and a debug log. Each assertion names one component's
// emission, so a component that loses its sinks fails here.
class ObsWiringShardTest : public ::testing::TestWithParam<int> {};

TEST_P(ObsWiringShardTest, EveryComponentReachesItsSinks) {
  const int shards = GetParam();
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "obs-wiring",
    "topology": {"name": "fat-tree", "k": 4},
    "seed": 7,
    "systems": ["mars"],
    "faults": [
      {"kind": "rate", "at_s": 3.0},
      {"kind": "read-outage", "at_s": 4.0, "duration_s": 1.0}
    ],
    "obs": {
      "log_level": "debug",
      "provenance": true,
      "flight_recorder": {"enabled": true, "confidence_threshold": 1.0}
    }
  })");
  Observability obs;
  ScenarioConfig cfg = spec.to_config();
  cfg.sim.shards = shards;
  cfg.observability = &obs;
  ASSERT_TRUE(validate_scenario(cfg).empty());
  const ScenarioResult result = run_scenario(cfg);
  ASSERT_TRUE(result.fault_injected);

  // Event log: the scenario runner, the injector, the controller, the
  // channel and MARS itself.
  for (const char* component :
       {"scenario", "injector", "controller", "channel", "mars"}) {
    EXPECT_TRUE(std::any_of(obs.log.events().begin(), obs.log.events().end(),
                            [&](const obs::LogEvent& e) {
                              return e.component == component;
                            }))
        << "no log event from " << component;
  }

  // Metrics: the analyzer's mining counters, the injector's skip counter,
  // and the pipeline's latency histogram, which attaches at one shard
  // only (every sink shares it).
  const obs::MetricsSnapshot& snap = obs.snapshot;
  EXPECT_GT(snap.counter_or("mars.rca.mine.calls", 0), 0u);
  EXPECT_TRUE(std::any_of(snap.counters.begin(), snap.counters.end(),
                          [](const auto& c) {
                            return c.first == "faults.skipped";
                          }));
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& h) { return h.first == "mars.telemetry_latency_ns"; });
  if (shards == 1) {
    ASSERT_NE(hist, snap.histograms.end());
    EXPECT_GT(hist->second.total, 0u);
  } else {
    EXPECT_EQ(hist, snap.histograms.end());
  }

  // Trace: wall spans from the controller and the analyzer, virtual spans
  // from the controller and MARS, instants from MARS and the runner, and
  // the sampler's counter tracks.
  std::ostringstream trace;
  obs.tracer.write_chrome_json(trace);
  const obs::JsonValue doc = obs::JsonValue::parse(trace.str());
  auto has_event = [&](char ph, int pid, std::string_view prefix) {
    for (const obs::JsonValue& e : doc.find("traceEvents")->items()) {
      if (e.find("ph")->as_string() == std::string(1, ph) &&
          e.find("pid")->as_int() == pid &&
          e.find("name")->as_string().starts_with(prefix)) {
        return true;
      }
    }
    return false;
  };
  constexpr int kWall = obs::SpanTracer::kWallPid;
  constexpr int kVirtual = obs::SpanTracer::kVirtualPid;
  EXPECT_TRUE(has_event('X', kWall, "controller.poll"));
  EXPECT_TRUE(has_event('X', kWall, "rca.analyze"));
  EXPECT_TRUE(has_event('X', kWall, "rca.mine:"));
  EXPECT_TRUE(has_event('X', kVirtual, "collection_window"));
  EXPECT_TRUE(has_event('X', kVirtual, "diagnosis"));
  EXPECT_TRUE(has_event('i', kVirtual, "notification"));
  EXPECT_TRUE(has_event('i', kVirtual, "fault_injected"));
  EXPECT_TRUE(has_event('C', kVirtual, "sim."));

  // Flight recorder: a low-confidence dump that holds the sampler's
  // counter deltas.
  bool metrics_delta = false;
  for (const auto& dump : obs.recorder.dumps()) {
    for (const obs::LogEvent& e : dump.events) {
      metrics_delta |= e.component == "metrics" && e.event == "delta";
    }
  }
  EXPECT_TRUE(metrics_delta);

  // Provenance: the runner's fault nodes, the controller's sessions, and
  // the analyzer's epochs, patterns and suspects.
  for (const NodeKind kind : {NodeKind::kFault, NodeKind::kSession,
                              NodeKind::kEpoch, NodeKind::kPattern,
                              NodeKind::kSuspect}) {
    EXPECT_FALSE(nodes_of(obs.provenance, kind).empty())
        << obs::ProvenanceGraph::kind_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ObsWiringShardTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace mars
