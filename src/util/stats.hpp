#pragma once
// Batch statistics used across MARS.
//
// The reservoir detector (paper Alg. 1) thresholds on median(R) + C·σ(R);
// RCA and the evaluation use medians, quantiles and robust spreads.

#include <cstddef>
#include <span>
#include <vector>

namespace mars::util {

/// Median of a sample. Copies the input (non-destructive). Empty input -> 0.
[[nodiscard]] double median(std::span<const double> values);

/// In-place median via nth_element. Empty input -> 0.
[[nodiscard]] double median_inplace(std::vector<double>& values);

/// q-quantile in [0,1] using linear interpolation (type-7, the numpy
/// default). Empty input -> 0.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Population standard deviation of a sample. Empty input -> 0.
[[nodiscard]] double stddev(std::span<const double> values);

/// Median absolute deviation scaled to be consistent with σ for normal
/// data (x1.4826). Robust: a few extreme outliers barely move it.
[[nodiscard]] double mad_sigma(std::span<const double> values);

/// Mean of a sample. Empty input -> 0.
[[nodiscard]] double mean(std::span<const double> values);

}  // namespace mars::util
