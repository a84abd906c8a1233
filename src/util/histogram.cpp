#include "util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mars::util {

LogLinearHistogram::LogLinearHistogram(std::uint32_t sub_bucket_bits,
                                       std::size_t max_buckets)
    : sub_bits_(sub_bucket_bits), sub_count_(std::uint64_t{1} << sub_bucket_bits),
      counts_(max_buckets, 0) {
  assert(max_buckets > 0 && sub_bucket_bits < 32);
}

void LogLinearHistogram::add_n(std::uint64_t v, std::uint64_t n) {
  std::size_t idx = bucket_of(v);
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  counts_[idx] += n;
  total_ += n;
}

void LogLinearHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

std::size_t LogLinearHistogram::bucket_of(std::uint64_t v) const {
  if (v < sub_count_) return static_cast<std::size_t>(v);
  // Power-of-two range [2^e, 2^{e+1}) split into sub_count_ linear
  // sub-buckets of width 2^{e - sub_bits_}.
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = e - sub_bits_;
  const std::uint64_t offset = (v - (std::uint64_t{1} << e)) >> shift;
  return static_cast<std::size_t>(
      sub_count_ + static_cast<std::uint64_t>(shift) * sub_count_ + offset);
}

std::uint64_t LogLinearHistogram::bucket_floor(std::size_t bucket) const {
  if (bucket < sub_count_) return bucket;
  const std::uint64_t k = (bucket - sub_count_) / sub_count_;  // e - sub_bits_
  const std::uint64_t j = (bucket - sub_count_) % sub_count_;
  const std::uint64_t e = k + sub_bits_;
  return (std::uint64_t{1} << e) + (j << k);
}

double LogLinearHistogram::fraction_above(std::uint64_t threshold) const {
  if (total_ == 0) return 0.0;
  std::size_t thr = bucket_of(threshold);
  if (thr >= counts_.size()) return 0.0;  // threshold past the clamp bucket
  std::uint64_t above = 0;
  for (std::size_t i = thr + 1; i < counts_.size(); ++i) above += counts_[i];
  return static_cast<double>(above) / static_cast<double>(total_);
}

}  // namespace mars::util
