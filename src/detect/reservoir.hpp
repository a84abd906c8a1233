#pragma once
// Reservoir anomaly detection (paper §4.3.1, Algorithm 1).
//
// A per-flow reservoir of recent latency samples yields a dynamic threshold
//     θ = median(R) + C·σ(R).
// New samples replace random reservoir items with probability α·p_s where
// the penalty factor α = exp(−c_o) shrinks as consecutive outliers arrive,
// so a burst of anomalous latencies cannot inflate the threshold.
//
// Note on Algorithm 1 as printed: its lines 3–9 reset c_o on an outlier and
// increment it otherwise, which would make α *largest* during an outlier
// burst — the opposite of the paper's stated intent ("as more continuous
// outliers are detected, the possibility that incoming data gets into the
// reservoir decreases severely") and of the Fig. 8 ablation. We implement
// the stated intent: c_o counts consecutive outliers and resets on a normal
// sample. The printed variant is available as PenaltyMode::kAsPrinted for
// the ablation bench.

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mars::detect {

enum class PenaltyMode {
  kNone,       ///< α ≡ 1 (the "w/o penalty factor" ablation in Fig. 8)
  kConsecutiveOutliers,  ///< α = exp(−c_o), c_o = consecutive outliers
  kAsPrinted,  ///< literal Algorithm 1 (c_o resets on outliers)
};

/// Scale estimator for the threshold margin. The paper writes θ = m + Cσ;
/// σ itself is fragile — one admitted extreme outlier in a reservoir of
/// hundreds inflates it by orders of magnitude, exactly the failure the
/// penalty factor tries to prevent at the admission stage. MAD (median
/// absolute deviation, σ-consistent scaling) closes the residual hole and
/// is the default; plain σ remains available for the ablation.
enum class ScaleEstimator {
  kStdDev,
  kMad,
};

struct ReservoirConfig {
  std::size_t volume = 256;        ///< reservoir capacity v
  double static_probability = 0.5; ///< p_s
  double sigma_multiplier = 3.0;   ///< C in θ = m + C·scale
  PenaltyMode penalty = PenaltyMode::kConsecutiveOutliers;
  ScaleEstimator scale = ScaleEstimator::kMad;
  /// Threshold for flows whose reservoir is still cold (paper: "set at a
  /// relatively high level (e.g., 10 seconds) to minimize false positives").
  sim::Time default_threshold = 10 * sim::kSecond;
  /// Minimum samples before the dynamic threshold replaces the default.
  std::size_t warmup = 16;
  /// Relative margin floor: θ >= m·(1 + margin) so a zero-variance
  /// reservoir does not flag benign jitter.
  double relative_margin = 0.05;
};

class Reservoir {
 public:
  explicit Reservoir(ReservoirConfig config = {},
                     std::uint64_t seed = 0x5A5A5A5Aull);

  /// Algorithm 1's INPUT: classify `latency_ns`, then maybe admit it.
  /// Returns the outlier flag.
  bool input(double latency_ns);

  /// Current detection threshold in nanoseconds. Cached until the
  /// reservoir's contents change.
  [[nodiscard]] double threshold() const;

  /// True once the dynamic threshold is active.
  [[nodiscard]] bool warmed_up() const {
    return samples_.size() >= config_.warmup;
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] int consecutive_outliers() const { return consecutive_; }
  [[nodiscard]] const ReservoirConfig& config() const { return config_; }

  /// Median of the current reservoir contents (0 when empty).
  [[nodiscard]] double median() const;
  /// Scale of the current reservoir contents per the configured estimator.
  [[nodiscard]] double sigma() const;

 private:
  [[nodiscard]] double admit_probability() const;

  ReservoirConfig config_;
  std::vector<double> samples_;
  /// threshold() of the current `samples_`; reset whenever they change.
  mutable std::optional<double> threshold_;
  int consecutive_ = 0;  ///< c_o under the active PenaltyMode
  util::Rng rng_;
};

/// Fixed-threshold classifier: the static baseline Fig. 8 compares against.
class StaticThresholdDetector {
 public:
  explicit StaticThresholdDetector(double threshold_ns)
      : threshold_(threshold_ns) {}

  [[nodiscard]] bool input(double latency_ns) const {
    return latency_ns > threshold_;
  }
  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  double threshold_;
};

}  // namespace mars::detect
