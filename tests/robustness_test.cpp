// Degraded-telemetry robustness: determinism of chaos runs, retry/backoff
// behaviour, partial-data diagnosis, and the confidence invariants under
// a randomized soak.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mars/mars.hpp"
#include "mars/scenario.hpp"
#include "mars/sweep.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "parallel/thread_pool.hpp"
#include "workload/traffic_gen.hpp"

namespace mars {
namespace {

using namespace mars::sim::literals;

ScenarioConfig lossy_config(std::uint64_t seed, double notification_loss,
                            double read_failure, double record_loss = 0.0,
                            double record_corruption = 0.0) {
  ScenarioConfig cfg =
      default_scenario(faults::FaultKind::kProcessRateDecrease, seed);
  cfg.systems = {"mars"};
  cfg.mars.channel.notification_loss = notification_loss;
  cfg.mars.channel.read_failure = read_failure;
  cfg.mars.channel.record_loss = record_loss;
  cfg.mars.channel.record_corruption = record_corruption;
  return cfg;
}

TEST(RobustnessTest, FixedSeedChaosRunsAreBitIdentical) {
  const ScenarioConfig cfg = lossy_config(7, 0.2, 0.1, 0.05, 0.02);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.net_stats.delivered, b.net_stats.delivered);
  const SystemOutcome& oa = a.outcome("mars");
  const SystemOutcome& ob = b.outcome("mars");
  EXPECT_EQ(oa.rank, ob.rank);
  EXPECT_EQ(oa.diagnosis_bytes, ob.diagnosis_bytes);
  EXPECT_EQ(oa.confidence, ob.confidence);
  ASSERT_EQ(oa.culprits.size(), ob.culprits.size());
  for (std::size_t i = 0; i < oa.culprits.size(); ++i) {
    EXPECT_EQ(oa.culprits[i].describe(), ob.culprits[i].describe());
  }
}

TEST(RobustnessTest, DifferentTrialSeedsSeeDifferentChaos) {
  // The trial seed is mixed into the channel seed: two trials that differ
  // only in seed must not replay the same drop pattern (decorrelation).
  const ScenarioResult a = run_scenario(lossy_config(1, 0.3, 0.2));
  const ScenarioResult b = run_scenario(lossy_config(2, 0.3, 0.2));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(RobustnessTest, SweepThreadCountDoesNotChangeChaosOutcomes) {
  std::vector<SweepPoint> points;
  for (std::uint64_t seed = 11; seed < 17; ++seed) {
    SweepPoint point;
    point.config = lossy_config(seed, 0.25, 0.15, 0.1, 0.05);
    point.label = "chaos/seed=" + std::to_string(seed);
    points.push_back(std::move(point));
  }
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  const SweepResult serial = run_sweep(one, points);
  const SweepResult parallel = run_sweep(four, points);
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const ScenarioResult& s = serial.trials[i].result;
    const ScenarioResult& p = parallel.trials[i].result;
    EXPECT_EQ(s.events_executed, p.events_executed) << points[i].label;
    EXPECT_EQ(s.outcome("mars").rank, p.outcome("mars").rank)
        << points[i].label;
    EXPECT_EQ(s.outcome("mars").confidence, p.outcome("mars").confidence)
        << points[i].label;
  }
}

TEST(RobustnessTest, TotalReadOutageYieldsZeroCoveragePartialSessions) {
  ScenarioConfig cfg = lossy_config(5, 0.0, 1.0);  // every drain read fails
  const ScenarioResult result = run_scenario(cfg);
  const SystemOutcome& mars = result.outcome("mars");
  // The controller still runs RCA on zero records without crashing; any
  // session it produced has no evidence behind it.
  if (mars.confidence) {
    EXPECT_DOUBLE_EQ(*mars.confidence, 0.0);
  }
}

TEST(RobustnessTest, PerfectChannelReportsFullConfidence) {
  const ScenarioResult result =
      run_scenario(lossy_config(7, 0.0, 0.0));  // perfect
  const SystemOutcome& mars = result.outcome("mars");
  ASSERT_TRUE(mars.triggered);
  ASSERT_TRUE(mars.confidence.has_value());
  EXPECT_DOUBLE_EQ(*mars.confidence, 1.0);
}

// The MarsSystem-level soak drives aggressive chaos across many seeds and
// checks the hard invariants: no crash, the run ends (no hang past the
// horizon), confidence stays in [0, 1], and confidence == 1 exactly when
// the controller observed zero degradation. (Silently corrupted records —
// plausible garbage — are invisible by construction and cannot lower
// confidence; the quarantine counters only see detectable damage.)
TEST(RobustnessTest, AggressiveChaosSoakHoldsInvariants) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    net::FatTree ft = net::build_fat_tree(
        {.k = 4, .edge_agg_gbps = 0.007, .agg_core_gbps = 0.010});
    net::Engine engine{ft.topology};
    net::Network& net = engine.network();
    for (net::SwitchId sw = 0; sw < net.switch_count(); ++sw) {
      net.node(sw).set_queue_capacity(4096);
    }
    MarsConfig cfg;
    cfg.controller.reservoir.warmup = 12;
    cfg.controller.reservoir.relative_margin = 0.3;
    cfg.channel.notification_loss = 0.5;
    cfg.channel.notification_delay_prob = 0.3;
    cfg.channel.read_failure = 0.5;
    cfg.channel.record_loss = 0.3;
    cfg.channel.record_corruption = 0.3;
    cfg.channel.seed = seed * 7919;
    MarsSystem mars{net, cfg};
    mars.start();

    workload::TrafficGenerator traffic(net, seed);
    workload::BackgroundConfig bg;
    bg.flows = 24;
    traffic.add_background(bg, ft.edge, 4);
    traffic.start();
    const auto& spec = traffic.flows().front();
    net::PortId out = 0;
    ASSERT_TRUE(net.routing().select_port(spec.flow.source, spec.flow.sink,
                                          spec.flow_hash, out));
    engine.global().schedule_at(3_s, [&net, &spec, out] {
      net.node(spec.flow.source).set_max_pps(out, 60.0);
    });

    engine.run(6_s);  // returns: no hang past the horizon
    EXPECT_GT(engine.sim().events_executed(), 0u) << "seed " << seed;
    EXPECT_LE(engine.now(), 6_s) << "seed " << seed;

    const auto confidence = mars.confidence();
    bool any_degraded = false;
    for (const auto& d : mars.diagnoses()) {
      const auto& q = d.session.quality;
      EXPECT_GE(q.confidence(), 0.0) << "seed " << seed;
      EXPECT_LE(q.confidence(), 1.0) << "seed " << seed;
      EXPECT_LE(q.switches_drained, q.switches_total) << "seed " << seed;
      if (q.degraded()) any_degraded = true;
      EXPECT_EQ(q.confidence() == 1.0, !q.degraded()) << "seed " << seed;
    }
    if (confidence) {
      EXPECT_GE(*confidence, 0.0) << "seed " << seed;
      EXPECT_LE(*confidence, 1.0) << "seed " << seed;
      EXPECT_EQ(*confidence == 1.0, !any_degraded) << "seed " << seed;
      EXPECT_EQ(mars.controller().overheads().partial_sessions > 0,
                any_degraded)
          << "seed " << seed;
    }
  }
}

// Retry/backoff accounting: with reads failing often, the controller must
// log retry rounds, and abandoned drains only after the bounded retries.
TEST(RobustnessTest, RetriesAreBoundedAndAccounted) {
  ScenarioConfig cfg = lossy_config(3, 0.0, 0.6);
  cfg.mars.controller.max_read_retries = 2;
  const ScenarioResult result = run_scenario(cfg);
  (void)result;
  // Accounting is visible through the obs gauges in scenario runs; here we
  // check the controller directly on a hand-wired system.
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  MarsConfig mc;
  mc.channel.read_failure = 0.6;
  mc.controller.max_read_retries = 2;
  mc.controller.collection_delay = 0;
  MarsSystem mars{net, mc};
  dataplane::Notification n;
  n.kind = dataplane::Notification::Kind::kHighLatency;
  n.when = engine.now();
  mars.controller().on_notification(n);
  engine.run(10_s);  // let retry rounds play out
  const auto& oh = mars.controller().overheads();
  EXPECT_EQ(oh.diagnoses, 1u);
  EXPECT_GT(oh.drain_read_failures, 0u);
  // Each failed switch was retried at most max_read_retries times.
  EXPECT_LE(oh.drain_retry_rounds, 2u);
  ASSERT_EQ(mars.controller().sessions().size(), 1u);
  const auto& q = mars.controller().sessions().front().quality;
  EXPECT_EQ(q.switches_total, 8u);  // K=4 fat-tree edge switches
  EXPECT_EQ(q.switches_drained + oh.drains_abandoned, q.switches_total);
}

}  // namespace
}  // namespace mars
