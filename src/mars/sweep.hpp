#pragma once
// run_sweep: the batch driver behind every multi-trial figure.
//
// A sweep is a list of SweepPoints (a ScenarioConfig plus a label); the
// driver fans the points across a thread pool — each trial owns its
// simulator and network, so trials are embarrassingly parallel — and
// merges the per-trial rankings into per-system LocalizationStats
// (Recall@k / Exam Score, Table 1) and overhead totals (Fig. 9). Results
// are index-aligned with the input points and bit-identical to running
// the same configs sequentially: parallelism never changes an outcome.

#include <string>
#include <vector>

#include "mars/scenario.hpp"
#include "metrics/ranking.hpp"
#include "parallel/thread_pool.hpp"

namespace mars {

/// One trial of a sweep: the config to run and a human label for reports
/// ("rate/seed=7").
struct SweepPoint {
  ScenarioConfig config;
  std::string label;
};

/// One completed trial, index-aligned with the input points.
struct SweepTrial {
  std::string label;
  ScenarioResult result;
};

/// Cross-trial aggregate for one telemetry system.
struct SystemAggregate {
  std::string system;
  /// One rank per trial that injected at least one fault (rank of the
  /// first ground truth, the Table-1 number).
  metrics::LocalizationStats stats;
  std::uint64_t telemetry_bytes = 0;  ///< summed over trials
  std::uint64_t diagnosis_bytes = 0;  ///< summed over trials
  std::size_t triggered = 0;          ///< trials where the system fired
  std::size_t deployments = 0;        ///< trials deploying this system
};

struct SweepResult {
  std::vector<SweepTrial> trials;         ///< input order
  std::vector<SystemAggregate> systems;   ///< first-seen order

  [[nodiscard]] const SystemAggregate* find(std::string_view system) const {
    for (const auto& aggregate : systems) {
      if (aggregate.system == system) return &aggregate;
    }
    return nullptr;
  }
};

/// Run every point on `pool` (validating all of them up front — throws
/// std::invalid_argument naming the offending label before any trial
/// runs) and merge the outcomes. Deterministic: trial i equals
/// run_scenario(points[i].config) regardless of the pool's thread count.
/// Trials run without observability: a config's bundle pointer is not
/// shared across threads.
[[nodiscard]] SweepResult run_sweep(parallel::ThreadPool& pool,
                                    const std::vector<SweepPoint>& points);

}  // namespace mars
