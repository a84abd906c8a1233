#include "detect/reservoir.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace mars::detect {
namespace {

ReservoirConfig small_config() {
  ReservoirConfig cfg;
  cfg.volume = 64;
  cfg.warmup = 16;
  return cfg;
}

TEST(ReservoirTest, UsesDefaultThresholdWhenCold) {
  Reservoir r(small_config());
  EXPECT_FALSE(r.warmed_up());
  EXPECT_DOUBLE_EQ(r.threshold(),
                   static_cast<double>(small_config().default_threshold));
  // Nothing below 10s flags while cold.
  EXPECT_FALSE(r.input(1e6));
  EXPECT_FALSE(r.input(5e6));
}

TEST(ReservoirTest, WarmsUpAndTracksDistribution) {
  Reservoir r(small_config());
  util::Rng rng(1);
  for (int i = 0; i < 64; ++i) r.input(rng.normal(1e6, 5e4));
  EXPECT_TRUE(r.warmed_up());
  EXPECT_NEAR(r.median(), 1e6, 1e5);
  // Threshold sits above the bulk of the distribution.
  EXPECT_GT(r.threshold(), 1.05e6);
  EXPECT_LT(r.threshold(), 2e6);
}

TEST(ReservoirTest, FlagsOutliers) {
  Reservoir r(small_config());
  util::Rng rng(2);
  for (int i = 0; i < 64; ++i) r.input(rng.normal(1e6, 5e4));
  EXPECT_TRUE(r.input(1e7));   // 10x the median
  EXPECT_FALSE(r.input(1e6));  // normal again
}

TEST(ReservoirTest, PenaltyKeepsThresholdStableUnderOutlierBurst) {
  // The Fig. 8 story: without the penalty factor a burst of high latencies
  // pollutes the reservoir, inflating sigma and raising the threshold so
  // later anomalies are missed.
  ReservoirConfig with_penalty = small_config();
  with_penalty.penalty = PenaltyMode::kConsecutiveOutliers;
  ReservoirConfig without_penalty = small_config();
  without_penalty.penalty = PenaltyMode::kNone;

  Reservoir penalized(with_penalty, 7);
  Reservoir naive(without_penalty, 7);
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const double v = rng.normal(1e6, 5e4);
    penalized.input(v);
    naive.input(v);
  }
  const double thr_before = penalized.threshold();
  // Long anomaly burst.
  for (int i = 0; i < 200; ++i) {
    penalized.input(5e6);
    naive.input(5e6);
  }
  // The penalized reservoir barely moved; the naive one absorbed outliers.
  EXPECT_LT(penalized.threshold(), thr_before * 1.5);
  EXPECT_GT(naive.threshold(), penalized.threshold());
  // And the penalized reservoir still flags the anomaly as an outlier.
  EXPECT_TRUE(penalized.input(5e6));
}

TEST(ReservoirTest, ConsecutiveOutlierCountResetsOnNormal) {
  Reservoir r(small_config());
  util::Rng rng(4);
  for (int i = 0; i < 64; ++i) r.input(rng.normal(1e6, 5e4));
  r.input(1e8);
  r.input(1e8);
  EXPECT_EQ(r.consecutive_outliers(), 2);
  r.input(1e6);
  EXPECT_EQ(r.consecutive_outliers(), 0);
}

TEST(ReservoirTest, ZeroVarianceUsesRelativeMargin) {
  Reservoir r(small_config());
  for (int i = 0; i < 64; ++i) r.input(1e6);
  // sigma == 0; the margin floor keeps jitter below 5% unflagged.
  EXPECT_FALSE(r.input(1.04e6));
  EXPECT_TRUE(r.input(1.06e6));
}

TEST(ReservoirTest, CapacityNeverExceeded) {
  ReservoirConfig cfg = small_config();
  cfg.volume = 32;
  Reservoir r(cfg);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) r.input(rng.normal(1e6, 1e5));
  EXPECT_EQ(r.size(), 32u);
}

TEST(ReservoirTest, CachedThresholdMatchesRecomputation) {
  // threshold() is cached until the reservoir's contents change. After
  // every input — through warm-up, then admissions and rejections once
  // full — it must equal the formula recomputed from median()/sigma().
  for (const ScaleEstimator scale :
       {ScaleEstimator::kMad, ScaleEstimator::kStdDev}) {
    ReservoirConfig cfg = small_config();
    cfg.scale = scale;
    Reservoir r(cfg, 21);
    util::Rng rng(22);
    // Once full, a rejected sample leaves median and sigma as they were;
    // an admitted one (almost surely, for continuous values) moves one.
    std::size_t moved_when_full = 0;
    std::size_t still_when_full = 0;
    double last_median = r.median();
    double last_sigma = r.sigma();
    for (int i = 0; i < 800; ++i) {
      // Outlier bursts drive the penalty factor, so admission odds vary.
      const bool burst = (i / 40) % 5 == 4;
      const double latency =
          burst ? rng.normal(6e6, 2e5) : rng.normal(1e6, 5e4);
      const bool full = r.size() == cfg.volume;
      r.input(latency);
      const double m = r.median();
      const double sigma = r.sigma();
      const double expected =
          r.warmed_up()
              ? m + std::max(cfg.sigma_multiplier * sigma,
                             cfg.relative_margin * m)
              : static_cast<double>(cfg.default_threshold);
      ASSERT_EQ(r.threshold(), expected) << "input " << i;
      ASSERT_EQ(r.threshold(), expected) << "input " << i << " (cached)";
      if (full) {
        const bool moved = m != last_median || sigma != last_sigma;
        (moved ? moved_when_full : still_when_full) += 1;
      }
      last_median = m;
      last_sigma = sigma;
    }
    EXPECT_GT(moved_when_full, 50u);
    EXPECT_GT(still_when_full, 50u);
  }
}

class ReservoirSigmaParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ReservoirSigmaParamTest, ThresholdScalesWithC) {
  ReservoirConfig cfg = small_config();
  cfg.sigma_multiplier = GetParam();
  Reservoir r(cfg, 11);
  util::Rng rng(6);
  for (int i = 0; i < 64; ++i) r.input(rng.normal(1e6, 1e5));
  EXPECT_NEAR(r.threshold(), r.median() + GetParam() * r.sigma(),
              0.05 * r.median() + 1.0);
}

INSTANTIATE_TEST_SUITE_P(SigmaMultipliers, ReservoirSigmaParamTest,
                         ::testing::Values(2.0, 3.0, 4.0, 6.0));

TEST(StaticThresholdTest, FlagsAboveFixedValue) {
  StaticThresholdDetector d(2e6);
  EXPECT_FALSE(d.input(1.9e6));
  EXPECT_TRUE(d.input(2.1e6));
}

}  // namespace
}  // namespace mars::detect
