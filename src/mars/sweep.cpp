#include "mars/sweep.hpp"

#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace mars {

SweepResult run_sweep(parallel::ThreadPool& pool,
                      const std::vector<SweepPoint>& points) {
  // Validate every point before burning cycles on any of them: a sweep
  // that dies on point 900 of 1000 wasted an afternoon.
  for (const SweepPoint& point : points) {
    const auto errors = validate_scenario(point.config);
    if (!errors.empty()) {
      std::string joined;
      for (const auto& e : errors) {
        if (!joined.empty()) joined += "; ";
        joined += e;
      }
      throw std::invalid_argument("sweep point '" + point.label +
                                  "' invalid: " + joined);
    }
  }

  SweepResult sweep;
  sweep.trials.resize(points.size());
  parallel::parallel_for(pool, 0, points.size(), [&](std::size_t i) {
    SweepTrial& trial = sweep.trials[i];
    trial.label = points[i].label;
    // Each trial gets a private config copy without the caller's
    // observability pointer, which is unsafe to share across threads.
    ScenarioConfig config = points[i].config;
    config.observability = nullptr;
    trial.result = run_scenario(config);
  });

  // Merge rankings and overheads per system, single-threaded for a
  // deterministic first-seen order.
  for (const SweepTrial& trial : sweep.trials) {
    for (const SystemOutcome& outcome : trial.result.systems) {
      SystemAggregate* aggregate = nullptr;
      for (auto& a : sweep.systems) {
        if (a.system == outcome.system) {
          aggregate = &a;
          break;
        }
      }
      if (aggregate == nullptr) {
        SystemAggregate fresh;
        fresh.system = outcome.system;
        sweep.systems.push_back(std::move(fresh));
        aggregate = &sweep.systems.back();
      }
      ++aggregate->deployments;
      if (!trial.result.truths.empty()) aggregate->stats.add(outcome.rank);
      aggregate->telemetry_bytes += outcome.telemetry_bytes;
      aggregate->diagnosis_bytes += outcome.diagnosis_bytes;
      if (outcome.triggered) ++aggregate->triggered;
    }
  }
  return sweep;
}

}  // namespace mars
