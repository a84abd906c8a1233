#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace mars::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    xs.push_back(u);
  }
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
  EXPECT_NEAR(stddev(xs), 1.0 / std::sqrt(12.0), 0.01);
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10'000, 500);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(4, 10);
    ASSERT_GE(v, 4);
    ASSERT_LE(v, 10);
    saw_lo |= (v == 4);
    saw_hi |= (v == 10);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 200'000; ++i) xs.push_back(rng.exponential(2.0));
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 200'000; ++i) xs.push_back(rng.normal(10.0, 3.0));
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 3.0, 0.05);
}

TEST(RngTest, ParetoIsHeavyTailedAboveScale) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) ASSERT_GE(rng.pareto(1.5, 2.0), 1.5);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(77);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits, 30'000, 1'000);
}

}  // namespace
}  // namespace mars::util
