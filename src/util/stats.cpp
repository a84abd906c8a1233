#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mars::util {

double median(std::span<const double> values) {
  std::vector<double> copy(values.begin(), values.end());
  return median_inplace(copy);
}

double median_inplace(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, copy.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return copy[lo] + frac * (copy[hi] - copy[lo]);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double mad_sigma(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double m = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - m));
  return 1.4826 * median_inplace(deviations);
}

}  // namespace mars::util
