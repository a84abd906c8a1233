// Validation and spec plumbing for the event engine's "sim" block.
//
// Every run is sharded, one shard by default. validate_scenario must
// reject what the engine cannot honour — out-of-range shard counts, and at
// two or more shards the baselines and backends whose observer state
// spans switches, or topologies with no partition boundary — with
// sentences that name the offending path, mirroring the channel/mining
// validation style. At one shard every system, backend, channel and
// telemetry fault runs. The spec layer lowers the block, seconds to
// simulator time.

#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "faults/injector.hpp"
#include "net/partition.hpp"
#include "sim/time.hpp"
#include "telemetry/backend.hpp"

namespace mars {
namespace {

ScenarioConfig mars_only(int shards) {
  auto cfg = default_scenario(faults::FaultKind::kProcessRateDecrease, 7);
  cfg.systems = {"mars"};
  cfg.sim.shards = shards;
  return cfg;
}

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& needle) {
  for (const auto& e : errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ShardedValidationTest, DefaultConfigHasNoShardingAndValidates) {
  // The default is one shard, with all four systems deployed.
  const auto cfg =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 7);
  EXPECT_EQ(cfg.sim.shards, 1);
  EXPECT_EQ(cfg.systems.size(), 4u);
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

TEST(ShardedValidationTest, ZeroShardsIsRejectedWithItsPath) {
  const auto errors = validate_scenario(mars_only(0));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("sim.shards must be in [1, 64] (got 0)"),
            std::string::npos);
}

TEST(ShardedValidationTest, EverySystemAndBackendValidatesAtOneShard) {
  auto cfg = default_scenario(faults::FaultKind::kDrop, 7);
  cfg.systems = {"mars", "spidermon", "intsight", "syndb"};
  for (const auto kind :
       {telemetry::BackendKind::kPostcard, telemetry::BackendKind::kIntMd,
        telemetry::BackendKind::kHistogram}) {
    cfg.mars.pipeline.backend.kind = kind;
    EXPECT_TRUE(validate_scenario(cfg).empty())
        << telemetry::to_string(kind) << " rejected at one shard";
  }
}

TEST(ShardedValidationTest, OtherBackendsAreRejectedUnderSharding) {
  auto cfg = mars_only(2);
  cfg.mars.pipeline.backend.kind = telemetry::BackendKind::kIntMd;
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(any_error_contains(
      errors, "supports only the 'postcard' telemetry backend (got 'int-md'"));
}

TEST(ShardedValidationTest, ShardCountsWithinCapacityValidate) {
  for (const int shards : {1, 2, 4, 8}) {
    EXPECT_TRUE(validate_scenario(mars_only(shards)).empty())
        << shards << " shards rejected";
  }
}

TEST(ShardedValidationTest, ShardCountOutOfRangeIsPathNamed) {
  auto errors = validate_scenario(mars_only(65));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("sim.shards must be in [1, 64] (got 65)"),
            std::string::npos);

  errors = validate_scenario(mars_only(-1));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("sim.shards must be in [1, 64]"),
            std::string::npos);
}

TEST(ShardedValidationTest, ShardsBeyondPartitionCapacityAreRejected) {
  // A k=4 fat-tree splits into 8 atoms (4 pods + 4 cores): 9 shards have
  // no boundary to cut along.
  const auto errors = validate_scenario(mars_only(9));
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(any_error_contains(errors, "partition capacity"));
  EXPECT_TRUE(any_error_contains(errors, "9 shards"));
  EXPECT_TRUE(any_error_contains(errors, "8 components"));
}

TEST(ShardedValidationTest, BaselineSystemsAreRejectedUnderSharding) {
  auto cfg = mars_only(2);
  cfg.systems = {"mars", "spidermon"};
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(any_error_contains(
      errors, "supports only the 'mars' telemetry system (got 'spidermon')"));
}

TEST(ShardedValidationTest, DegradedChannelIsRejectedUnderSharding) {
  // The channel runs in the global domain, between windows, so a
  // degraded channel validates at every shard count.
  for (const int shards : {1, 2, 4}) {
    auto cfg = mars_only(shards);
    cfg.mars.channel.notification_loss = 0.2;
    cfg.mars.channel.read_failure = 0.3;
    cfg.mars.channel.record_corruption = 0.1;
    EXPECT_TRUE(validate_scenario(cfg).empty()) << shards << " shards";
  }
}

TEST(ShardedValidationTest, TelemetryFaultsAreRejectedUnderSharding) {
  // Telemetry faults turn the channel's dials from global events, so they
  // validate at every shard count.
  for (const int shards : {1, 2, 4}) {
    auto cfg = mars_only(shards);
    cfg.faults = faults::FaultSchedule::single(
        faults::FaultKind::kNotificationLoss, 3 * sim::kSecond);
    EXPECT_TRUE(validate_scenario(cfg).empty()) << shards << " shards";
  }
}

TEST(ShardedValidationTest, NonPositiveControlLatencyIsRejected) {
  auto cfg = mars_only(2);
  cfg.sim.control_latency = 0;
  const auto errors = validate_scenario(cfg);
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(any_error_contains(errors, "sim.control_latency"));
}

TEST(ShardedValidationTest, RunScenarioThrowsEveryShardingSentence) {
  auto cfg = mars_only(2);
  cfg.systems = {"mars", "syndb"};
  cfg.mars.pipeline.backend.kind = telemetry::BackendKind::kHistogram;
  cfg.mars.channel.read_failure = 0.5;  // allowed at every shard count
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'mars' telemetry system"), std::string::npos);
    EXPECT_NE(what.find("'postcard' telemetry backend"), std::string::npos);
    EXPECT_EQ(what.find("mars.channel"), std::string::npos);
  }
}

// ---- spec layer ----

TEST(ShardedSpecTest, SimBlockRoundTripsAndLowers) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "sharded",
    "systems": ["mars"],
    "sim": {"shards": 4, "control_latency_s": 0.002}
  })");
  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.sim.shards, 4);
  EXPECT_EQ(cfg.sim.control_latency, 2 * sim::kMillisecond);
}

TEST(ShardedSpecTest, SpecWithoutSimBlockRunsLegacyEngine) {
  // No "sim" block means the one engine at one shard.
  const ScenarioSpec spec = parse_scenario_spec(R"({"seed": 7})");
  for (const auto& [key, value] : spec.assignments) {
    EXPECT_FALSE(key->path.starts_with("sim.")) << key->path;
  }
  EXPECT_EQ(spec.to_config().sim.shards, 1);
}

TEST(ShardedSpecTest, ParsedZeroShardsFailsValidationWithItsPath) {
  // The parser reads the count; validate_scenario owns its range.
  const ScenarioSpec spec = parse_scenario_spec(R"({"sim": {"shards": 0}})");
  const auto errors = validate_scenario(spec.to_config());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front(), "sim.shards must be in [1, 64] (got 0)");
}

TEST(ShardedSpecTest, ShardsOutOfRangeIsPathNamed) {
  auto errors = validate_scenario(
      parse_scenario_spec(R"({"sim": {"shards": 0}})").to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("sim.shards must be in [1, 64] (got 0)"),
            std::string::npos);

  errors = validate_scenario(
      parse_scenario_spec(R"({"sim": {"shards": 65}})").to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("sim.shards must be in [1, 64]"),
            std::string::npos);
}

TEST(ShardedSpecTest, UnknownSimKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"sim": {"shard_count": 4}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.sim"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("shard_count"), std::string::npos);
  }
}

TEST(ShardedSpecTest, PropagationOverrideLowersToNanoseconds) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topology": {"name": "fat-tree", "k": 4, "propagation_us": 10.0}
  })");
  EXPECT_EQ(spec.to_config().topology.propagation, 10'000);
}

TEST(ShardedSpecTest, FatTree16RegistryEntryBuildsTheBigFabric) {
  // The datacenter-scale alias ignores the spec's k and pins arity 16:
  // (16/2)^2 = 64 cores + 16 pods x 16 switches = 320 switches.
  ScenarioConfig cfg = mars_only(8);
  cfg.topology.name = "fat-tree-16";
  // 990208 paths pigeonhole the default crc16/16 PathID space, and the
  // registry audit refuses to deploy MARS on an ambiguous shape — the
  // big fabric needs the full-width hash (as datacenter_scale.json pins).
  cfg.mars.pipeline.path_id = {telemetry::HashKind::kCrc32, 32};
  EXPECT_TRUE(validate_scenario(cfg).empty());
  const auto fabric = net::TopologyRegistry::instance().build(cfg.topology);
  EXPECT_EQ(fabric.topology.switch_count(), 320u);
  EXPECT_EQ(fabric.pods, 16);
  EXPECT_EQ(net::partition_capacity(fabric.topology), 80);
}

}  // namespace
}  // namespace mars
