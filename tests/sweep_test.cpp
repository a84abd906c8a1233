// run_sweep: the parallel batch driver must be a pure speedup — trial i
// of a sweep equals run_scenario(points[i].config) result-for-result,
// regardless of thread count — and its per-system aggregates must match
// what a sequential merge would produce.

#include "mars/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mars/scenario.hpp"
#include "parallel/thread_pool.hpp"

namespace mars {
namespace {

/// `count` copies of `base` with seeds first_seed, first_seed+1, ...
/// labelled "seed=<n>".
std::vector<SweepPoint> seed_points(const ScenarioConfig& base,
                                    std::uint64_t first_seed,
                                    std::size_t count) {
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < count; ++i) {
    SweepPoint point;
    point.config = base;
    point.config.seed = first_seed + i;
    point.label = "seed=" + std::to_string(point.config.seed);
    points.push_back(std::move(point));
  }
  return points;
}

void expect_same_result(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.net_stats.delivered, b.net_stats.delivered);
  EXPECT_EQ(a.net_stats.dropped, b.net_stats.dropped);
  ASSERT_EQ(a.truths.size(), b.truths.size());
  for (std::size_t i = 0; i < a.truths.size(); ++i) {
    EXPECT_EQ(a.truths[i].describe(), b.truths[i].describe());
  }
  ASSERT_EQ(a.systems.size(), b.systems.size());
  for (std::size_t s = 0; s < a.systems.size(); ++s) {
    EXPECT_EQ(a.systems[s].system, b.systems[s].system);
    EXPECT_EQ(a.systems[s].rank, b.systems[s].rank);
    EXPECT_EQ(a.systems[s].triggered, b.systems[s].triggered);
    EXPECT_EQ(a.systems[s].telemetry_bytes, b.systems[s].telemetry_bytes);
    EXPECT_EQ(a.systems[s].diagnosis_bytes, b.systems[s].diagnosis_bytes);
    ASSERT_EQ(a.systems[s].culprits.size(), b.systems[s].culprits.size());
    for (std::size_t c = 0; c < a.systems[s].culprits.size(); ++c) {
      EXPECT_EQ(a.systems[s].culprits[c].describe(),
                b.systems[s].culprits[c].describe());
    }
  }
}

TEST(SweepTest, MatchesSequentialRunScenario) {
  const auto base = default_scenario(faults::FaultKind::kDrop, 0);
  const auto points = seed_points(base, 7, 3);

  parallel::ThreadPool pool(3);
  const SweepResult sweep = run_sweep(pool, points);
  ASSERT_EQ(sweep.trials.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(sweep.trials[i].label, points[i].label);
    const ScenarioResult sequential = run_scenario(points[i].config);
    expect_same_result(sweep.trials[i].result, sequential);
  }
}

TEST(SweepTest, AggregatesMatchManualMerge) {
  const auto base =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 0);
  const auto points = seed_points(base, 21, 2);
  parallel::ThreadPool pool(2);
  const SweepResult sweep = run_sweep(pool, points);

  const auto* mars_agg = sweep.find("mars");
  ASSERT_NE(mars_agg, nullptr);
  EXPECT_EQ(mars_agg->deployments, 2u);

  metrics::LocalizationStats expected;
  std::uint64_t telemetry = 0;
  std::size_t triggered = 0;
  for (const auto& trial : sweep.trials) {
    const auto& outcome = trial.result.outcome("mars");
    if (!trial.result.truths.empty()) expected.add(outcome.rank);
    telemetry += outcome.telemetry_bytes;
    triggered += outcome.triggered ? 1 : 0;
  }
  EXPECT_EQ(mars_agg->stats.recall_at(5), expected.recall_at(5));
  EXPECT_EQ(mars_agg->stats.exam_score(), expected.exam_score());
  EXPECT_EQ(mars_agg->telemetry_bytes, telemetry);
  EXPECT_EQ(mars_agg->triggered, triggered);
  EXPECT_EQ(sweep.find("no-such-system"), nullptr);
}

TEST(SweepTest, SingleThreadEqualsManyThreads) {
  const auto base = default_scenario(faults::FaultKind::kMicroBurst, 0);
  const auto points = seed_points(base, 11, 3);
  parallel::ThreadPool one(1);
  parallel::ThreadPool many(4);
  const auto a = run_sweep(one, points);
  const auto b = run_sweep(many, points);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    expect_same_result(a.trials[i].result, b.trials[i].result);
  }
}

TEST(SweepTest, ValidatesEveryPointUpFront) {
  const auto base = default_scenario(faults::FaultKind::kDrop, 0);
  auto points = seed_points(base, 1, 2);
  points[1].config.queue_capacity = 0;
  points[1].label = "bad-point";
  parallel::ThreadPool pool(2);
  try {
    (void)run_sweep(pool, points);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad-point"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mars
