#include "detect/reservoir.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace mars::detect {

Reservoir::Reservoir(ReservoirConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  samples_.reserve(config_.volume);
}

double Reservoir::median() const { return util::median(samples_); }

double Reservoir::sigma() const {
  return config_.scale == ScaleEstimator::kMad ? util::mad_sigma(samples_)
                                               : util::stddev(samples_);
}

double Reservoir::threshold() const {
  if (!warmed_up()) {
    return static_cast<double>(config_.default_threshold);
  }
  if (!threshold_) {
    const double m = median();
    const double margin = std::max(config_.sigma_multiplier * sigma(),
                                   config_.relative_margin * m);
    threshold_ = m + margin;
  }
  return *threshold_;
}

double Reservoir::admit_probability() const {
  switch (config_.penalty) {
    case PenaltyMode::kNone:
      return config_.static_probability;
    case PenaltyMode::kConsecutiveOutliers:
    case PenaltyMode::kAsPrinted:
      return std::exp(-static_cast<double>(consecutive_)) *
             config_.static_probability;
  }
  return config_.static_probability;
}

bool Reservoir::input(double latency_ns) {
  const bool outlier = latency_ns > threshold();

  // Update c_o. See the header comment on the printed-vs-intended variants.
  if (config_.penalty == PenaltyMode::kAsPrinted) {
    consecutive_ = outlier ? 0 : consecutive_ + 1;
  } else {
    consecutive_ = outlier ? consecutive_ + 1 : 0;
  }

  if (samples_.size() < config_.volume) {
    samples_.push_back(latency_ns);
    threshold_.reset();
  } else if (rng_.chance(admit_probability())) {
    const auto victim =
        static_cast<std::size_t>(rng_.below(samples_.size()));
    samples_[victim] = latency_ns;
    threshold_.reset();
  }
  return outlier;
}

}  // namespace mars::detect
