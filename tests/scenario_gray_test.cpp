// Gray-failure golden universe: fixed-seed fingerprints for every gray
// fault kind on the sharded engine, byte-identical at every shard count
// (the Gilbert–Elliott timeline and all gray severity draws happen at
// injection time from the injector's own stream, so thread/shard count
// cannot reorder them). Plus the clean-counterpart differential: a gray
// fault that manifests in 100% of windows grades exactly like its
// always-on sibling.

#include "mars/scenario.hpp"
#include "mars/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

namespace mars {
namespace {

ScenarioConfig gray_config(faults::FaultKind kind, std::uint64_t seed,
                           int shards) {
  auto cfg = default_scenario(kind, seed);
  cfg.duration = 4 * sim::kSecond;
  cfg.systems = {"mars"};  // validate_scenario: sharded runs are mars-only
  cfg.sim.shards = shards;
  cfg.mars.rca.accumulator.enabled = true;
  return cfg;
}

/// Everything an operator would act on, including the gray-specific
/// surfaces (manifestation bookkeeping, presence-calibrated confidence),
/// so "same diagnosis" is one string comparison.
std::string serialize_gray(const ScenarioResult& r) {
  std::ostringstream out;
  out << "events=" << r.events_executed
      << " injected=" << r.net_stats.injected
      << " delivered=" << r.net_stats.delivered
      << " dropped=" << r.net_stats.dropped << "\n";
  for (const auto& truth : r.truths) {
    out << "truth " << truth.describe()
        << " ratio=" << truth.manifestation_ratio
        << " transitions=" << truth.flap_transitions.size() << "\n";
  }
  for (const auto& outcome : r.systems) {
    out << outcome.system << " rank=";
    if (outcome.rank) {
      out << *outcome.rank;
    } else {
      out << "null";
    }
    out << " presence=";
    if (outcome.presence) {
      out << *outcome.presence;
    } else {
      out << "null";
    }
    out << "\n";
    for (const auto& culprit : outcome.culprits) {
      out << "  " << culprit.describe() << "\n";
    }
  }
  return out.str();
}

struct GrayFingerprint {
  faults::FaultKind kind;
  const char* label;
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t injected;
  std::uint64_t delivered;
  std::uint64_t dropped;
  std::optional<std::size_t> mars_rank;
  std::uint32_t windows_active;
  std::uint32_t windows_total;
};

class GrayScenarioDeterminismTest
    : public ::testing::TestWithParam<GrayFingerprint> {};

TEST_P(GrayScenarioDeterminismTest, GoldenAtShardOneByteIdenticalAtFour) {
  const GrayFingerprint& golden = GetParam();
  const ScenarioResult reference =
      run_scenario(gray_config(golden.kind, golden.seed, 1));
  EXPECT_EQ(reference.events_executed, golden.events);
  EXPECT_EQ(reference.net_stats.injected, golden.injected);
  EXPECT_EQ(reference.net_stats.delivered, golden.delivered);
  EXPECT_EQ(reference.net_stats.dropped, golden.dropped);
  EXPECT_EQ(reference.outcome("mars").rank, golden.mars_rank);
  ASSERT_EQ(reference.truths.size(), 1u);
  EXPECT_EQ(reference.truths.front().windows_active, golden.windows_active);
  EXPECT_EQ(reference.truths.front().windows_total, golden.windows_total);

  const ScenarioResult sharded =
      run_scenario(gray_config(golden.kind, golden.seed, 4));
  EXPECT_EQ(serialize_gray(sharded), serialize_gray(reference))
      << "gray diagnosis diverged between 1 and 4 shards";
}

INSTANTIATE_TEST_SUITE_P(
    GrayGoldenFingerprints, GrayScenarioDeterminismTest,
    ::testing::Values(
        GrayFingerprint{faults::FaultKind::kLinkFlap, "LinkFlap", 7, 305729,
                        40650, 40192, 423, 1, 6, 10},
        GrayFingerprint{faults::FaultKind::kSlowDrain, "SlowDrain", 7,
                        303284, 40650, 39936, 0, std::nullopt, 6, 10},
        GrayFingerprint{faults::FaultKind::kAsymmetricLoss, "AsymmetricLoss",
                        7, 304433, 40650, 40079, 538, 2, 10, 10},
        GrayFingerprint{faults::FaultKind::kLoadGatedDelay, "LoadGatedDelay",
                        7, 308721, 40650, 40614, 0, std::nullopt, 9, 10}),
    [](const ::testing::TestParamInfo<GrayFingerprint>& info) {
      return std::string(info.param.label) + "Seed" +
             std::to_string(info.param.seed);
    });

// The Gilbert–Elliott transition sequence itself — not just its summary —
// is bit-identical across shard counts.
TEST(GrayScenarioDeterminismTest, FlapTimelineIdenticalAcrossShardCounts) {
  const ScenarioResult one =
      run_scenario(gray_config(faults::FaultKind::kLinkFlap, 11, 1));
  ASSERT_EQ(one.truths.size(), 1u);
  ASSERT_FALSE(one.truths.front().flap_transitions.empty());
  for (const int shards : {2, 4}) {
    const ScenarioResult r =
        run_scenario(gray_config(faults::FaultKind::kLinkFlap, 11, shards));
    ASSERT_EQ(r.truths.size(), 1u);
    EXPECT_EQ(r.truths.front().flap_transitions,
              one.truths.front().flap_transitions)
        << "transition sequence diverged at " << shards << " shards";
  }
}

// Differential against the clean counterpart: an asymmetric-loss event
// whose forward probability is pinned to the same value a drop fault
// would use, with no reverse loss, produces the same packet-level run and
// the same ranked diagnosis — the gray kind only adds manifestation
// bookkeeping (which must read 100%).
TEST(GrayScenarioDeterminismTest, FullyManifestedAsymLossGradesLikeDrop) {
  auto clean = default_scenario(faults::FaultKind::kDrop, 21);
  clean.duration = 4 * sim::kSecond;
  clean.systems = {"mars"};
  clean.injector.drop_prob_min = 0.55;
  clean.injector.drop_prob_max = 0.55;
  const ScenarioResult a = run_scenario(clean);

  auto gray = default_scenario(faults::FaultKind::kAsymmetricLoss, 21);
  gray.duration = 4 * sim::kSecond;
  gray.systems = {"mars"};
  gray.faults.events.front().gray.loss_fwd = 0.55;
  const ScenarioResult b = run_scenario(gray);

  ASSERT_EQ(a.truths.size(), 1u);
  ASSERT_EQ(b.truths.size(), 1u);
  EXPECT_EQ(b.truths.front().switch_id, a.truths.front().switch_id);
  EXPECT_EQ(b.truths.front().port, a.truths.front().port);
  EXPECT_EQ(b.truths.front().manifestation_ratio, 1.0);
  // Identical packet history...
  EXPECT_EQ(b.net_stats.injected, a.net_stats.injected);
  EXPECT_EQ(b.net_stats.delivered, a.net_stats.delivered);
  EXPECT_EQ(b.net_stats.dropped, a.net_stats.dropped);
  // ...and an identical ranked verdict.
  const SystemOutcome& oa = a.outcome("mars");
  const SystemOutcome& ob = b.outcome("mars");
  EXPECT_EQ(ob.rank, oa.rank);
  ASSERT_EQ(ob.culprits.size(), oa.culprits.size());
  for (std::size_t i = 0; i < oa.culprits.size(); ++i) {
    EXPECT_EQ(ob.culprits[i].describe(), oa.culprits[i].describe());
  }
}

// Spec-driven gray run: the shipped scenarios/gray_failures.json shape
// parses, validates, runs, and surfaces both gray outputs (manifestation
// on the truth, presence on the outcome).
TEST(GrayScenarioDeterminismTest, SpecDrivenGrayRunSurfacesPresence) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "name": "gray-spec",
    "topology": {"name": "fat-tree"},
    "seed": 11,
    "duration_s": 4.0,
    "systems": ["mars"],
    "rca": {"accumulator": {"enabled": true, "half_life_s": 2.0}},
    "faults": [{
      "kind": "flap",
      "at_s": 2.0,
      "duration_s": 1.5,
      "gray": {"mean_up_ms": 100.0, "mean_down_ms": 50.0, "fanout": 2}
    }]
  })");
  EXPECT_TRUE(validate_scenario(spec.to_config()).empty());
  const ScenarioResult r = run_scenario(spec.to_config());
  ASSERT_EQ(r.truths.size(), 1u);
  EXPECT_GT(r.truths.front().windows_total, 0u);
  const SystemOutcome& outcome = r.outcome("mars");
  ASSERT_TRUE(outcome.presence.has_value());
  EXPECT_GT(*outcome.presence, 0.0);
  EXPECT_LE(*outcome.presence, 1.0);
}

}  // namespace
}  // namespace mars
