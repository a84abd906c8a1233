#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mars::util {
namespace {

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7}), 7.0);
}

TEST(MedianTest, RobustToOutliers) {
  // The reservoir relies on the median staying stable under a minority of
  // extreme latency outliers.
  std::vector<double> xs(100, 10.0);
  for (int i = 0; i < 10; ++i) xs[static_cast<std::size_t>(i)] = 1e9;
  EXPECT_DOUBLE_EQ(median(xs), 10.0);
}

TEST(QuantileTest, Interpolates) {
  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

}  // namespace
}  // namespace mars::util
