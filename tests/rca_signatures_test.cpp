#include "rca/signatures.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace mars::rca {
namespace {

using namespace mars::sim::literals;

constexpr net::FlowId kFlow{1, 5};
constexpr sim::Time kEpoch = 100 * sim::kMillisecond;

telemetry::RtRecord record(sim::Time at, std::uint32_t src_count,
                           std::uint32_t qdepth) {
  telemetry::RtRecord rec;
  rec.flow = kFlow;
  rec.sink_timestamp = at;
  rec.src_last_epoch_count = src_count;
  rec.total_queue_depth = qdepth;
  return rec;
}

TEST(FlowFeaturesTest, SplitsBaselineAndProblemAtBoundary) {
  std::vector<telemetry::RtRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(record(i * kEpoch, 20, 1));  // 200 pps baseline
  }
  for (int i = 10; i < 15; ++i) {
    records.push_back(record(i * kEpoch, 150, 12));  // burst + queue
  }
  const auto f =
      extract_flow_features(records, kFlow, 10 * kEpoch, kEpoch);
  ASSERT_TRUE(f.has_baseline);
  ASSERT_TRUE(f.has_problem);
  EXPECT_NEAR(f.baseline_pps, 200.0, 1.0);
  EXPECT_NEAR(f.problem_pps, 1500.0, 10.0);
  EXPECT_NEAR(f.baseline_queue, 1.0, 0.1);
  EXPECT_NEAR(f.problem_queue, 12.0, 0.1);
  EXPECT_TRUE(f.pps_spiked({}));
  EXPECT_TRUE(f.queue_congested({}));
  EXPECT_FALSE(f.pps_stable({}));
}

TEST(FlowFeaturesTest, StablePpsWithQueueGrowthIsProcessRateShape) {
  std::vector<telemetry::RtRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(record(i * kEpoch, 20, 1));
  for (int i = 10; i < 15; ++i) {
    records.push_back(record(i * kEpoch, 21, 40));  // inflow stable
  }
  const auto f =
      extract_flow_features(records, kFlow, 10 * kEpoch, kEpoch);
  EXPECT_FALSE(f.pps_spiked({}));
  EXPECT_TRUE(f.pps_stable({}));
  EXPECT_TRUE(f.queue_congested({}));
}

TEST(FlowFeaturesTest, OneAmbientSpikeDoesNotFlipCongestion) {
  std::vector<telemetry::RtRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(record(i * kEpoch, 20, 0));
  // Problem window: mostly quiet, one spike.
  records.push_back(record(10 * kEpoch, 20, 0));
  records.push_back(record(11 * kEpoch, 20, 30));  // ambient outlier
  records.push_back(record(12 * kEpoch, 20, 0));
  records.push_back(record(13 * kEpoch, 20, 1));
  records.push_back(record(14 * kEpoch, 20, 0));
  const auto f =
      extract_flow_features(records, kFlow, 10 * kEpoch, kEpoch);
  EXPECT_FALSE(f.queue_congested({}));
}

TEST(FlowFeaturesTest, MissingWindowsReportNoEvidence) {
  const std::vector<telemetry::RtRecord> empty;
  const auto f = extract_flow_features(empty, kFlow, 0, kEpoch);
  EXPECT_FALSE(f.has_baseline);
  EXPECT_FALSE(f.has_problem);
  EXPECT_FALSE(f.pps_spiked({}));
  EXPECT_TRUE(f.pps_stable({}));  // no evidence of change
  EXPECT_FALSE(f.queue_congested({}));
}

// ---- ECMP verdict ----

telemetry::RtRecord path_record(sim::Time at, std::uint32_t path_a_pkts,
                                std::uint32_t path_b_pkts) {
  telemetry::RtRecord rec;
  rec.flow = kFlow;
  rec.sink_timestamp = at;
  rec.path_count_n = 2;
  rec.path_counts[0] = {0xA, path_a_pkts};
  rec.path_counts[1] = {0xB, path_b_pkts};
  return rec;
}

struct EcmpFixture {
  // Two three-switch paths diverging at switch 1.
  net::SwitchPath path_a{1, 2, 5};
  net::SwitchPath path_b{1, 3, 5};
  std::vector<std::pair<std::uint32_t, std::span<const net::SwitchId>>>
      lookup{{0xA, path_a}, {0xB, path_b}};
};

TEST(EcmpVerdictTest, DetectsSplitThatBecameUneven) {
  EcmpFixture f;
  const std::vector<PathShare> baseline{{0xA, 100}, {0xB, 100}};
  const std::vector<PathShare> problem{{0xA, 20}, {0xB, 260}};
  const auto verdict =
      detect_ecmp_imbalance(baseline, problem, f.lookup, {}, 1.0, 1.0);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->chooser, 1u);
  EXPECT_GE(verdict->ratio, 10.0);
}

TEST(EcmpVerdictTest, AlwaysSkewedSplitIsNotTheFault) {
  EcmpFixture f;
  // Hash skew: 4:1 in both windows.
  const std::vector<PathShare> baseline{{0xA, 400}, {0xB, 100}};
  const std::vector<PathShare> problem{{0xA, 400}, {0xB, 100}};
  EXPECT_FALSE(detect_ecmp_imbalance(baseline, problem, f.lookup, {}, 1.0,
                                     1.0)
                   .has_value());
}

TEST(EcmpVerdictTest, CollapsedBranchWithoutGrowthIsNotRebalancing) {
  EcmpFixture f;
  // Path A stalls (process-rate fault downstream); B carries the same
  // load as before: share shifted, but no traffic MOVED to B.
  const std::vector<PathShare> baseline{{0xA, 100}, {0xB, 100}};
  const std::vector<PathShare> problem{{0xA, 5}, {0xB, 100}};
  EXPECT_FALSE(detect_ecmp_imbalance(baseline, problem, f.lookup, {}, 1.0,
                                     1.0)
                   .has_value());
}

TEST(EcmpVerdictTest, SinglePathFlowGivesNoVerdict) {
  EcmpFixture f;
  const std::vector<PathShare> baseline{{0xA, 100}};
  const std::vector<PathShare> problem{{0xA, 100}};
  EXPECT_FALSE(detect_ecmp_imbalance(baseline, problem, f.lookup, {}, 1.0,
                                     1.0)
                   .has_value());
}

TEST(EcmpVerdictTest, BranchSwitchCountsAsGrowth) {
  EcmpFixture f;
  // The flow's packets moved wholesale from A to B (weights flipped).
  const std::vector<PathShare> baseline{{0xA, 100}};
  const std::vector<PathShare> problem{{0xB, 110}};
  const auto verdict =
      detect_ecmp_imbalance(baseline, problem, f.lookup, {}, 1.0, 1.0);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->chooser, 1u);
}

TEST(PathSharesTest, WindowsAndCompletePerPathCounts) {
  std::vector<telemetry::RtRecord> records;
  records.push_back(path_record(0, 10, 10));
  records.push_back(path_record(1_s, 5, 30));
  const auto early = path_shares(records, kFlow, 0, 500_ms);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(early[0].packets, 10u);
  const auto late = path_shares(records, kFlow, 500_ms,
                                std::numeric_limits<sim::Time>::max());
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].packets, 5u);
  EXPECT_EQ(late[1].packets, 30u);
}

}  // namespace
}  // namespace mars::rca
