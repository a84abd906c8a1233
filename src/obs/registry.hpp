#pragma once
// Metrics registry: named counters, lazy gauges, and log-linear histograms
// with snapshot/delta semantics and JSON export.
//
// Zero-overhead discipline (same rule as the PR-1 "no observers attached"
// fast path): nothing in this registry runs unless something reads it.
//   - Counters are plain 64-bit cells; an increment is one add on a handle
//     the caller already holds. Components that only *might* be observed
//     hold a nullable pointer and guard with one branch.
//   - Gauges are lazy callbacks — registering one costs nothing at runtime;
//     the callback runs only when a snapshot or sampler tick reads it. This
//     is how hot-path state (per-port counters, queue depths) is exported
//     without touching the hot path at all.
//   - Histograms bucket in O(1) with two shifts (HdrHistogram-style
//     log-linear layout), but are only ever updated behind an
//     "is a registry attached" null check at the call site.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mars::obs {

class JsonWriter;

/// Monotonic counter cell. Handles returned by MetricsRegistry::counter()
/// are stable for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log-linear histogram over unsigned 64-bit values (latencies in ns,
/// queue depths, byte counts). Values in [0, 2*S) get exact unit buckets;
/// above that, each power-of-two octave splits into S linear sub-buckets,
/// so every bucket's relative width is <= 1/S (S = 2^sub_bucket_bits).
/// Bucketing is two shifts + a subtract — cheap enough for in-pipeline use,
/// the P4TG histogram argument.
class LogHistogram {
 public:
  /// `sub_bucket_bits` = log2 of sub-buckets per octave (default 16/octave,
  /// <= 6.25% relative bucket width).
  explicit LogHistogram(std::uint32_t sub_bucket_bits = 4);

  void record(std::uint64_t value);
  void record_n(std::uint64_t value, std::uint64_t n);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Sum of recorded values (means; saturating is the caller's problem).
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                  : 0.0;
  }

  /// Bucket index a value lands in.
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const;
  /// Inclusive lower / exclusive upper value bound of a bucket.
  [[nodiscard]] std::uint64_t bucket_lo(std::size_t index) const;
  [[nodiscard]] std::uint64_t bucket_hi(std::size_t index) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const {
    return index < counts_.size() ? counts_[index] : 0;
  }
  /// Number of allocated buckets (highest used index + 1).
  [[nodiscard]] std::size_t bucket_len() const { return counts_.size(); }
  [[nodiscard]] std::uint32_t sub_bucket_bits() const {
    return sub_bucket_bits_;
  }

  /// Approximate quantile (upper bound of the bucket holding rank q*total).
  [[nodiscard]] std::uint64_t quantile(double q) const;

 private:
  std::uint32_t sub_bucket_bits_;
  std::vector<std::uint64_t> counts_;  // grown lazily to the max used index
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Point-in-time view of a registry, detached from the live objects (safe
/// to keep after the instrumented components are gone). Deterministic:
/// entries are sorted by name.
struct MetricsSnapshot {
  struct HistogramView {
    std::uint32_t sub_bucket_bits = 4;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /// Non-empty buckets as (lower bound, count).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramView>> histograms;

  /// Counters/histogram counts minus `earlier` (names missing from
  /// `earlier` keep their full value); gauges keep the later reading.
  [[nodiscard]] MetricsSnapshot delta(const MetricsSnapshot& earlier) const;

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback) const;
};

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  /// Create-or-get. Handles stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  LogHistogram& histogram(const std::string& name,
                          std::uint32_t sub_bucket_bits = 4);
  /// Register (or replace) a lazy gauge. The callback must stay valid
  /// until the gauge is removed or the registry destroyed; callers wiring
  /// gauges to scoped objects must remove_gauges() before teardown.
  void gauge(const std::string& name, GaugeFn read);

  /// Remove every gauge whose name starts with `prefix` ("" removes all).
  /// Returns the number removed. Scenario runners call this after taking a
  /// final snapshot so no gauge outlives the network it reads.
  std::size_t remove_gauges(std::string_view prefix = {});

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  /// Read every gauge now, name-sorted (the sampler's per-tick scrape;
  /// cheaper than a full snapshot because histograms are not walked).
  [[nodiscard]] std::vector<std::pair<std::string, double>> read_gauges()
      const;

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Write the snapshot as one object into an in-progress document (for
  /// callers composing a larger JSON file, e.g. mars_cli --metrics-out).
  /// Works on a snapshot, so it stays valid after teardown.
  static void write_json(JsonWriter& w, const MetricsSnapshot& snap);

 private:
  // std::map keeps iteration (and thus every export) name-ordered and
  // deterministic; unique_ptr keeps handles stable across rehash/inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
  std::map<std::string, GaugeFn> gauges_;
};

}  // namespace mars::obs
