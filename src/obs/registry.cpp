#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/json_writer.hpp"

namespace mars::obs {

// ---- LogHistogram --------------------------------------------------------
//
// Layout (S = 2^s sub-buckets per octave):
//   values [0, 2S)   -> buckets [0, 2S), exact (unit width);
//   values [2^k, 2^(k+1)) for k > s -> S buckets of width 2^(k-s).
// A value v >= 2S with top bit k lands in bucket
//   2S + (k - s - 1)*S + ((v >> (k - s)) - S).

LogHistogram::LogHistogram(std::uint32_t sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits) {
  assert(sub_bucket_bits_ < 32);
}

std::size_t LogHistogram::bucket_index(std::uint64_t value) const {
  const std::uint64_t s = sub_bucket_bits_;
  const std::uint64_t S = 1ull << s;
  if (value < 2 * S) return static_cast<std::size_t>(value);
  const auto k = static_cast<std::uint64_t>(std::bit_width(value)) - 1;
  const std::uint64_t sub = (value >> (k - s)) - S;
  return static_cast<std::size_t>(2 * S + (k - s - 1) * S + sub);
}

std::uint64_t LogHistogram::bucket_lo(std::size_t index) const {
  const std::uint64_t s = sub_bucket_bits_;
  const std::uint64_t S = 1ull << s;
  const auto i = static_cast<std::uint64_t>(index);
  if (i < 2 * S) return i;
  const std::uint64_t octave = (i - 2 * S) / S;  // k - s - 1
  const std::uint64_t sub = (i - 2 * S) % S;
  return (S + sub) << (octave + 1);
}

std::uint64_t LogHistogram::bucket_hi(std::size_t index) const {
  const std::uint64_t s = sub_bucket_bits_;
  const std::uint64_t S = 1ull << s;
  const auto i = static_cast<std::uint64_t>(index);
  if (i < 2 * S) return i + 1;
  const std::uint64_t octave = (i - 2 * S) / S;
  const std::uint64_t sub = (i - 2 * S) % S;
  return (S + sub + 1) << (octave + 1);
}

void LogHistogram::record(std::uint64_t value) { record_n(value, 1); }

void LogHistogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t idx = bucket_index(value);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  counts_[idx] += n;
  if (total_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  total_ += n;
  sum_ += value * n;
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank || (seen == total_ && seen >= rank)) {
      // Clamp to the observed max: the top bucket's upper bound can be far
      // above anything actually recorded.
      return std::min(bucket_hi(i) - 1, max_);
    }
  }
  return max_;
}

// ---- MetricsSnapshot -----------------------------------------------------

namespace {

template <typename T>
const T* find_named(const std::vector<std::pair<std::string, T>>& sorted,
                    std::string_view name) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  if (it == sorted.end() || it->first != name) return nullptr;
  return &it->second;
}

}  // namespace

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  const std::uint64_t* v = find_named(counters, name);
  return v ? *v : fallback;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  out.gauges = gauges;
  out.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    const std::uint64_t* prev = find_named(earlier.counters, name);
    out.counters.emplace_back(name, value - (prev ? *prev : 0));
  }
  out.histograms.reserve(histograms.size());
  for (const auto& [name, view] : histograms) {
    const HistogramView* prev = find_named(earlier.histograms, name);
    if (prev == nullptr) {
      out.histograms.emplace_back(name, view);
      continue;
    }
    HistogramView d;
    d.sub_bucket_bits = view.sub_bucket_bits;
    d.total = view.total - prev->total;
    d.sum = view.sum - prev->sum;
    d.min = view.min;  // min/max are lifetime extremes, not window ones
    d.max = view.max;
    for (const auto& [lo, count] : view.buckets) {
      std::uint64_t before = 0;
      for (const auto& [plo, pcount] : prev->buckets) {
        if (plo == lo) {
          before = pcount;
          break;
        }
      }
      if (count > before) d.buckets.emplace_back(lo, count - before);
    }
    out.histograms.emplace_back(name, std::move(d));
  }
  return out;
}

// ---- MetricsRegistry -----------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name,
                                         std::uint32_t sub_bucket_bits) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LogHistogram>(sub_bucket_bits);
  return *slot;
}

void MetricsRegistry::gauge(const std::string& name, GaugeFn read) {
  gauges_[name] = std::move(read);
}

std::size_t MetricsRegistry::remove_gauges(std::string_view prefix) {
  std::size_t removed = 0;
  for (auto it = gauges_.begin(); it != gauges_.end();) {
    if (std::string_view(it->first).substr(0, prefix.size()) == prefix) {
      it = gauges_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::read_gauges()
    const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, fn] : gauges_) {
    out.emplace_back(name, fn ? fn() : 0.0);
  }
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.emplace_back(name, cell->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, fn] : gauges_) {
    snap.gauges.emplace_back(name, fn ? fn() : 0.0);
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramView view;
    view.sub_bucket_bits = hist->sub_bucket_bits();
    view.total = hist->total();
    view.sum = hist->sum();
    view.min = hist->min();
    view.max = hist->max();
    for (std::size_t i = 0; i < hist->bucket_len(); ++i) {
      if (hist->bucket_count(i) > 0) {
        view.buckets.emplace_back(hist->bucket_lo(i), hist->bucket_count(i));
      }
    }
    snap.histograms.emplace_back(name, std::move(view));
  }
  return snap;
}

void MetricsRegistry::write_json(JsonWriter& w, const MetricsSnapshot& snap) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.member(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) w.member(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, view] : snap.histograms) {
    w.key(name).begin_object();
    w.member("total", view.total);
    w.member("sum", view.sum);
    w.member("min", view.min);
    w.member("max", view.max);
    w.member("sub_bucket_bits", static_cast<std::uint64_t>(
                                    view.sub_bucket_bits));
    w.key("buckets").begin_array();
    for (const auto& [lo, count] : view.buckets) {
      w.begin_array().value(lo).value(count).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace mars::obs
