// The declarative experiment engine: topology/system registries,
// up-front scenario validation, multi-fault schedules, the leaf-spine
// end-to-end path, and the event-queue traffic gauges.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "mars/scenario.hpp"
#include "mars/system_registry.hpp"
#include "net/topology_registry.hpp"

namespace mars {
namespace {

using sim::kSecond;

// ---------------------------------------------------------------- registries

TEST(TopologyRegistryTest, BuiltinsAreRegistered) {
  const auto names = net::TopologyRegistry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "fat-tree"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "leaf-spine"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "torus"), names.end());
}

TEST(TopologyRegistryTest, UnknownNameListsKnownOnes) {
  net::TopologySpec spec;
  spec.name = "torus";
  const auto errors = net::TopologyRegistry::instance().validate(spec);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("torus"), std::string::npos);
  EXPECT_NE(errors.front().find("fat-tree"), std::string::npos);
  EXPECT_THROW((void)net::TopologyRegistry::instance().build(spec),
               std::invalid_argument);
}

TEST(TopologyRegistryTest, FatTreeRejectsOddOrTinyArity) {
  net::TopologySpec spec;
  spec.k = 5;
  EXPECT_FALSE(net::TopologyRegistry::instance().validate(spec).empty());
  spec.k = 2;
  EXPECT_FALSE(net::TopologyRegistry::instance().validate(spec).empty());
  spec.k = 4;
  EXPECT_TRUE(net::TopologyRegistry::instance().validate(spec).empty());
}

TEST(TopologyRegistryTest, RejectsNonPositiveLinkRates) {
  net::TopologySpec spec;
  spec.edge_gbps = 0.0;
  EXPECT_FALSE(net::TopologyRegistry::instance().validate(spec).empty());
  spec.edge_gbps = 10.0;
  spec.core_gbps = -1.0;
  EXPECT_FALSE(net::TopologyRegistry::instance().validate(spec).empty());
}

TEST(TopologyRegistryTest, BuildsLeafSpineWithRoleMetadata) {
  net::TopologySpec spec;
  spec.name = "leaf-spine";
  spec.leaves = 6;
  spec.spines = 3;
  const auto fabric = net::TopologyRegistry::instance().build(spec);
  EXPECT_EQ(fabric.edge.size(), 6u);
  EXPECT_EQ(fabric.core.size(), 3u);
  EXPECT_EQ(fabric.pods, 1);
  EXPECT_EQ(fabric.topology.switch_count(), 9u);
}

TEST(SystemRegistryTest, AllFourPaperSystemsRegistered) {
  const auto names = SystemRegistry::instance().names();
  for (const char* expected : {"mars", "spidermon", "intsight", "syndb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_FALSE(SystemRegistry::instance().contains("netsight"));
}

// ---------------------------------------------------------------- validation

TEST(ScenarioValidationTest, DefaultScenarioIsValid) {
  const auto cfg =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 1);
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RejectsOddFatTreeArity) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.topology.k = 5;
  EXPECT_FALSE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RejectsFaultAtOrPastDuration) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.faults = faults::FaultSchedule::single(faults::FaultKind::kDrop,
                                             cfg.duration);
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("past the scenario duration"),
            std::string::npos);
}

TEST(ScenarioValidationTest, RejectsZeroQueueCapacity) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.queue_capacity = 0;
  EXPECT_FALSE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RejectsNonPositiveFlowRate) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.background.pps = 0.0;
  EXPECT_FALSE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RejectsUnknownAndDuplicateSystems) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.systems = {"mars", "netsight", "mars"};
  const auto errors = validate_scenario(cfg);
  ASSERT_GE(errors.size(), 2u);
  bool unknown = false, duplicate = false;
  for (const auto& e : errors) {
    if (e.find("netsight") != std::string::npos) unknown = true;
    if (e.find("more than once") != std::string::npos) duplicate = true;
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(duplicate);
}

TEST(ScenarioValidationTest, RejectsEmptySystems) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.systems.clear();
  const auto errors = validate_scenario(cfg);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().rfind("systems must name at least one", 0), 0u)
      << errors.front();
}

TEST(ScenarioValidationTest, RejectsPinnedPortWithoutSwitch) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.faults.events.front().target_port = 1;
  EXPECT_FALSE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RejectsOutOfRangePathIdWidth) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.mars.pipeline.path_id.width_bits = 33;
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("path_id.width_bits"), std::string::npos);
}

TEST(ScenarioValidationTest, RejectsNonConflictFreePathIdRegistry) {
  // 6-bit ids cannot cover the K=4 fat-tree's 208 paths, so the registry
  // audit is not conflict-free and deployment must be refused up front —
  // an ambiguous PathID would decompress diagnoses to the wrong path.
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.mars.pipeline.path_id = {telemetry::HashKind::kCrc16, 6};
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("not conflict-free"), std::string::npos);
  EXPECT_NE(errors.front().find("pigeonhole"), std::string::npos);
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);

  // Without MARS deployed the PathID shape is irrelevant: no rejection.
  cfg.systems = {"syndb"};
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

TEST(ScenarioValidationTest, RunScenarioThrowsOnInvalidConfig) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 1);
  cfg.queue_capacity = 0;
  cfg.systems = {"netsight"};
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("queue_capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("netsight"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------ fault schedules

TEST(FaultScheduleTest, OverlappingFaultsAreDeterministicInSeed) {
  // Two overlapping faults of different kinds; the same seed must yield
  // the same event count, the same truths, and the same ranked culprits.
  auto make = [] {
    auto cfg = default_scenario(faults::FaultKind::kProcessRateDecrease, 13);
    cfg.faults = {};
    faults::FaultEvent rate;
    rate.kind = faults::FaultKind::kProcessRateDecrease;
    rate.at = 2 * kSecond;
    rate.duration = 2 * kSecond;
    cfg.faults.add(rate);
    faults::FaultEvent drop;
    drop.kind = faults::FaultKind::kDrop;
    drop.at = 3 * kSecond;  // overlaps the rate fault
    cfg.faults.add(drop);
    return cfg;
  };
  const auto a = run_scenario(make());
  const auto b = run_scenario(make());

  ASSERT_EQ(a.truths.size(), 2u);
  ASSERT_EQ(b.truths.size(), 2u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  for (std::size_t i = 0; i < a.truths.size(); ++i) {
    EXPECT_EQ(a.truths[i].describe(), b.truths[i].describe());
  }
  const auto& ac = a.outcome("mars");
  const auto& bc = b.outcome("mars");
  ASSERT_EQ(ac.culprits.size(), bc.culprits.size());
  for (std::size_t i = 0; i < ac.culprits.size(); ++i) {
    EXPECT_EQ(ac.culprits[i].describe(), bc.culprits[i].describe());
  }
  EXPECT_EQ(ac.ranks, bc.ranks);
  // Every outcome carries one rank slot per ground truth.
  for (const auto& outcome : a.systems) {
    EXPECT_EQ(outcome.ranks.size(), a.truths.size());
  }
}

TEST(FaultScheduleTest, PinnedTargetIsHonoured) {
  auto cfg = default_scenario(faults::FaultKind::kProcessRateDecrease, 3);
  cfg.faults.events.front().target_switch = 2;
  cfg.faults.events.front().target_port = 0;
  const auto result = run_scenario(cfg);
  ASSERT_TRUE(result.fault_injected);
  EXPECT_EQ(result.truth().switch_id, 2u);
  EXPECT_EQ(result.truth().port, 0u);
}

TEST(FaultScheduleTest, SubsetDeploymentGradesOnlyNamedSystems) {
  auto cfg = default_scenario(faults::FaultKind::kProcessRateDecrease, 5);
  cfg.systems = {"mars", "syndb"};
  const auto result = run_scenario(cfg);
  ASSERT_EQ(result.systems.size(), 2u);
  EXPECT_EQ(result.systems[0].system, "mars");
  EXPECT_EQ(result.systems[1].system, "syndb");
  EXPECT_EQ(result.find("spidermon"), nullptr);
  EXPECT_THROW((void)result.outcome("spidermon"), std::out_of_range);
}

// --------------------------------------------------------------- leaf-spine

TEST(LeafSpineScenarioTest, EndToEndLocalizesProcessRateFault) {
  auto cfg = default_scenario(faults::FaultKind::kProcessRateDecrease, 11);
  cfg.topology.name = "leaf-spine";
  cfg.topology.leaves = 8;
  cfg.topology.spines = 4;
  cfg.topology.edge_gbps = 0.007;
  cfg.topology.core_gbps = 0.010;
  const auto result = run_scenario(cfg);
  ASSERT_TRUE(result.fault_injected);
  EXPECT_GT(result.packets_injected, 0u);
  EXPECT_GT(result.net_stats.delivered, 0u);
  // At least one system pins the culprit in its top five on this seed.
  bool localized = false;
  for (const auto& outcome : result.systems) {
    if (outcome.rank && *outcome.rank <= 5) localized = true;
  }
  EXPECT_TRUE(localized);
}

TEST(LeafSpineScenarioTest, DeterministicInSeed) {
  auto make = [] {
    auto cfg = default_scenario(faults::FaultKind::kDrop, 19);
    cfg.topology.name = "leaf-spine";
    cfg.topology.edge_gbps = 0.007;
    cfg.topology.core_gbps = 0.010;
    return cfg;
  };
  const auto a = run_scenario(make());
  const auto b = run_scenario(make());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.net_stats.delivered, b.net_stats.delivered);
  EXPECT_EQ(a.outcome("mars").rank, b.outcome("mars").rank);
}

// ------------------------------------------------------- queue traffic gauges

double gauge(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [key, value] : snap.gauges) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no gauge " << name;
  return -1.0;
}

struct ObservedRun {
  obs::MetricsSnapshot snapshot;
  std::uint64_t events_executed = 0;
};

ObservedRun observed_run(int shards) {
  Observability obs;
  auto cfg = default_scenario(faults::FaultKind::kDrop, 21);
  cfg.systems = {"mars"};
  cfg.sim.shards = shards;
  cfg.observability = &obs;
  const ScenarioResult result = run_scenario(cfg);
  return {obs.snapshot, result.events_executed};
}

TEST(QueueGaugesTest, LanePushesAreLinkHopsAndPushesAreEveryEvent) {
  // sim.events_executed counts every queue, the global one and each
  // shard's, as the result does. Nothing in this trial cancels, so every
  // push is an executed or a still-pending event. At one shard every link
  // hop is a fixed-delay event that stays on its lane, so lane pushes are
  // exactly the packets the ports forwarded; at two, hops that cross
  // shards arrive as mail, through the heap.
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    const ObservedRun run = observed_run(shards);
    const obs::MetricsSnapshot& snap = run.snapshot;
    double forwarded = 0.0;
    for (const auto& [name, value] : snap.gauges) {
      if (name.starts_with("net.sw") && name.ends_with(".tx_packets")) {
        forwarded += value;
      }
    }
    const double heap = gauge(snap, "sim.queue.heap_pushes");
    const double lane = gauge(snap, "sim.queue.lane_pushes");
    const double events = gauge(snap, "sim.events_executed");
    EXPECT_EQ(events, static_cast<double>(run.events_executed));
    EXPECT_GT(lane, 0.0);
    if (shards == 1) {
      EXPECT_EQ(lane, forwarded);
    } else {
      EXPECT_LT(lane, forwarded);
    }
    EXPECT_EQ(heap + lane, events + gauge(snap, "sim.event_queue_depth"));
  }
}

TEST(QueueGaugesTest, ArePureFunctionsOfSpecSeedAndShards) {
  auto pushes = [](int shards) {
    const obs::MetricsSnapshot snap = observed_run(shards).snapshot;
    return std::pair{gauge(snap, "sim.queue.heap_pushes"),
                     gauge(snap, "sim.queue.lane_pushes")};
  };
  for (const int shards : {1, 2}) {
    const auto first = pushes(shards);
    EXPECT_GT(first.second, 0.0) << shards << " shards";
    EXPECT_EQ(first, pushes(shards)) << shards << " shards";
  }
}

}  // namespace
}  // namespace mars
