#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json_writer.hpp"

namespace mars::obs {

// ---- SeriesStore ---------------------------------------------------------

const std::vector<double>* SeriesStore::column(const std::string& name) const {
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return nullptr;
  return &columns_[static_cast<std::size_t>(it - names_.begin())];
}

double SeriesStore::last(const std::string& name, double fallback) const {
  const std::vector<double>* col = column(name);
  return (col != nullptr && !col->empty()) ? col->back() : fallback;
}

void SeriesStore::append_row(
    sim::Time t,
    const std::vector<std::pair<std::string, double>>& named_values) {
  const std::size_t prior_rows = times_.size();
  times_.push_back(t);
  // Merge the (sorted) incoming names into the (sorted) column set; a new
  // name opens a column backfilled with NaN for the rows it missed.
  for (const auto& [name, value] : named_values) {
    auto it = std::lower_bound(names_.begin(), names_.end(), name);
    std::size_t idx;
    if (it == names_.end() || *it != name) {
      idx = static_cast<std::size_t>(it - names_.begin());
      names_.insert(it, name);
      columns_.insert(columns_.begin() + static_cast<std::ptrdiff_t>(idx),
                      std::vector<double>(
                          prior_rows, std::numeric_limits<double>::quiet_NaN()));
    } else {
      idx = static_cast<std::size_t>(it - names_.begin());
    }
    columns_[idx].push_back(value);
  }
  // Columns whose gauge vanished this tick get NaN to stay row-aligned.
  for (auto& col : columns_) {
    if (col.size() < times_.size()) {
      col.push_back(std::numeric_limits<double>::quiet_NaN());
    }
  }
}

void SeriesStore::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("times_s").begin_array();
  for (const sim::Time t : times_) w.value(sim::to_seconds(t));
  w.end_array();
  w.key("series").begin_object();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    w.key(names_[i]).begin_array();
    for (const double v : columns_[i]) w.value(v);  // NaN -> null
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

// ---- Sampler -------------------------------------------------------------

Sampler::Sampler(sim::Simulator& sim, MetricsRegistry& registry,
                 SeriesStore& series, SamplerConfig config, Context obs)
    : sim_(&sim), registry_(&registry), series_(&series), config_(config),
      tracer_(obs.tracer), recorder_(obs.recorder) {}

void Sampler::start() {
  stop();
  // Epoch alignment: first tick at the smallest multiple of period >= now.
  const sim::Time now = sim_->now();
  const sim::Time p = config_.period;
  const sim::Time first = ((now + p - 1) / p) * p;
  if (first > config_.until) return;
  pending_event_ = sim_->schedule_at(first, [this, first] {
    pending_valid_ = false;
    tick(first, /*periodic=*/true);
  });
  pending_valid_ = true;
}

void Sampler::stop() {
  if (pending_valid_) {
    sim_->cancel(pending_event_);
    pending_valid_ = false;
  }
}

void Sampler::sample_now() { tick(sim_->now(), /*periodic=*/false); }

void Sampler::schedule_next(sim::Time from) {
  const sim::Time next = from + config_.period;
  if (next > config_.until) return;
  pending_event_ = sim_->schedule_at(next, [this, next] {
    pending_valid_ = false;
    tick(next, /*periodic=*/true);
  });
  pending_valid_ = true;
}

void Sampler::tick(sim::Time at, bool periodic) {
  ++ticks_;
  const auto row = registry_->read_gauges();
  series_->append_row(at, row);
  if (tracer_ != nullptr) {
    for (const auto& [name, value] : row) {
      if (std::isfinite(value)) tracer_->counter(name, at, value);
    }
  }
  if (recorder_ != nullptr) {
    // Full snapshot (counters included): the recorder keeps only the
    // per-tick counter deltas, the black box's metric track.
    recorder_->note_metrics(at, registry_->snapshot());
  }
  // Only a periodic tick reschedules; sample_now() is an off-grid extra
  // that must not shift the phase of the pending periodic event.
  if (periodic) schedule_next(at);
}

}  // namespace mars::obs
