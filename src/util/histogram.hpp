#pragma once
// Log-linear integer histogram for the histogram telemetry backend.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mars::util {

/// Log-linear histogram over non-negative integer samples, HdrHistogram
/// style: values below 2^sub_bucket_bits get exact unit-width buckets;
/// every power-of-two range above is split into 2^sub_bucket_bits linear
/// sub-buckets. This is the in-switch aggregation model for the histogram
/// telemetry backend — the layout a Tofino register array can hold (one
/// counter per bucket, bucket index computable with a priority encoder
/// plus a shift).
///
/// Samples past the last bucket are clamped into it, so no sample is
/// silently dropped.
class LogLinearHistogram {
 public:
  LogLinearHistogram(std::uint32_t sub_bucket_bits, std::size_t max_buckets);

  void add(std::uint64_t v) { add_n(v, 1); }
  void add_n(std::uint64_t v, std::uint64_t n);
  void clear();

  /// Bucket index `v` falls into, before clamping to max_buckets.
  [[nodiscard]] std::size_t bucket_of(std::uint64_t v) const;
  /// Smallest value mapping to `bucket` (its quantization floor).
  [[nodiscard]] std::uint64_t bucket_floor(std::size_t bucket) const;

  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const {
    return counts_[bucket];
  }
  /// Fraction of samples in buckets strictly above the one containing
  /// `threshold` — i.e. samples known to exceed the threshold's bucket.
  [[nodiscard]] double fraction_above(std::uint64_t threshold) const;

 private:
  std::uint32_t sub_bits_;
  std::uint64_t sub_count_;  ///< 1 << sub_bits_
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace mars::util
