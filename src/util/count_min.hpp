#pragma once
// Count-Min sketch: fixed-memory approximate counters.
//
// The prototype's Ingress/Egress tables use exact per-flow maps, which is
// faithful to the paper's testbed (tens of flows). At datacenter flow
// counts, per-flow exact state outgrows switch SRAM; production P4
// counting uses sketches. This sketch is the deployment path for the
// Ingress Table: point-insert/point-query with a one-sided error bound
// (estimates never undercount; overcount <= 2N/width with probability
// 1 - 2^-depth).

#include <array>
#include <cstdint>
#include <vector>

#include "util/crc.hpp"

namespace mars::util {

class CountMinSketch {
 public:
  /// width: counters per row (error ~ 2N/width); depth: independent rows.
  CountMinSketch(std::size_t width, std::size_t depth)
      : width_(width), depth_(depth), counters_(width * depth, 0) {}

  void add(std::uint64_t key, std::uint64_t count = 1) {
    for (std::size_t row = 0; row < depth_; ++row) {
      counters_[row * width_ + index(key, row)] += count;
    }
    total_ += count;
  }

  /// Point query: an upper bound on the true count (never lower).
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const {
    std::uint64_t best = UINT64_MAX;
    for (std::size_t row = 0; row < depth_; ++row) {
      best = std::min(best, counters_[row * width_ + index(key, row)]);
    }
    return best == UINT64_MAX ? 0 : best;
  }

  void clear() {
    counters_.assign(counters_.size(), 0);
    total_ = 0;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// SRAM bytes this sketch occupies on-switch (32-bit counters on
  /// hardware; modeled as such for accounting even though the host uses
  /// 64-bit lanes).
  [[nodiscard]] std::size_t memory_bytes() const {
    return width_ * depth_ * 4;
  }

 private:
  [[nodiscard]] std::size_t index(std::uint64_t key, std::size_t row) const {
    // Row-salted CRC32 over the key, as a P4 hash generator would do.
    const std::array<std::uint32_t, 3> words{
        static_cast<std::uint32_t>(key),
        static_cast<std::uint32_t>(key >> 32),
        static_cast<std::uint32_t>(row * 0x9E3779B9u + 1u)};
    return crc32_words(words) % width_;
  }

  std::size_t width_;
  std::size_t depth_;
  std::vector<std::uint64_t> counters_;
  std::uint64_t total_ = 0;
};

}  // namespace mars::util
