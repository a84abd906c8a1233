#pragma once
// Virtual-time sampler: a periodic simulator event that scrapes every
// registered gauge into an epoch-aligned time series.
//
// Replaces the hand-rolled "schedule a lambda every 100 ms that reads
// counters into a map" loops the figure benches used to carry. The sampler
// ticks at exact multiples of its period (epoch alignment: the first tick
// is the smallest multiple of `period` >= the start time), so series from
// different runs line up sample-for-sample and rows can be joined on time.
//
// The SeriesStore outlives the sampler (and the simulator): run_scenario
// owns a Sampler on its stack while the caller keeps the SeriesStore.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mars::obs {

class JsonWriter;

/// Column-oriented time series: one row per sampler tick, one column per
/// gauge. Gauges registered after the first tick join with NaN backfill so
/// every column has one value per row.
class SeriesStore {
 public:
  [[nodiscard]] std::size_t rows() const { return times_.size(); }
  [[nodiscard]] const std::vector<sim::Time>& times() const { return times_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  /// Column by name (empty if unknown).
  [[nodiscard]] const std::vector<double>* column(
      const std::string& name) const;
  /// Last value of a column (fallback when empty/unknown).
  [[nodiscard]] double last(const std::string& name, double fallback) const;

  /// Append one row. `named_values` must be sorted by name (the registry's
  /// snapshot order); unseen names become new NaN-backfilled columns.
  void append_row(
      sim::Time t,
      const std::vector<std::pair<std::string, double>>& named_values);

  /// JSON into an in-progress document: {"times_s": [...], "series":
  /// {name: [...], ...}}, with NaN backfill written as null.
  void write_json(JsonWriter& w) const;

 private:
  std::vector<sim::Time> times_;
  std::vector<std::string> names_;            // sorted
  std::vector<std::vector<double>> columns_;  // parallel to names_
};

struct SamplerConfig {
  sim::Time period = 100 * sim::kMillisecond;
  /// Stop sampling after this time (inclusive); the run's end.
  sim::Time until = std::numeric_limits<sim::Time>::max();
};

class Sampler {
 public:
  /// Does not start sampling; call start(). `series` and `registry` must
  /// outlive the simulation run. Of `obs`, only two sinks are read, each
  /// optional:
  ///   - tracer: each sample also becomes Perfetto counter events, so the
  ///     metrics show up as area tracks next to the spans;
  ///   - recorder: gains one "metrics/delta" event per tick with every
  ///     counter that moved since the previous tick.
  Sampler(sim::Simulator& sim, MetricsRegistry& registry, SeriesStore& series,
          SamplerConfig config = {}, Context obs = {});

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() { stop(); }

  /// Schedule the first tick at the next multiple of period (>= now).
  void start();
  /// Cancel the pending tick (safe if never started / already drained).
  void stop();

  /// Take one sample immediately at the current virtual time (used for a
  /// final scrape at end-of-run, off the periodic grid).
  void sample_now();

  [[nodiscard]] sim::Time period() const { return config_.period; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick(sim::Time at, bool periodic);
  void schedule_next(sim::Time from);

  sim::Simulator* sim_;
  MetricsRegistry* registry_;
  SeriesStore* series_;
  SamplerConfig config_;
  SpanTracer* tracer_;
  FlightRecorder* recorder_;
  std::uint64_t pending_event_ = 0;
  bool pending_valid_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace mars::obs
