#pragma once
// Cause-signature matching (paper §4.4.4).
//
// For a culprit pattern and a flow that traverses it, MARS decides which
// of the five causes fits by comparing the flow's recent behaviour (pps,
// total queue depth) in the problematic window against its baseline:
//
//   micro-burst:            flow pps rises sharply;
//   ECMP load imbalance:    queue congestion + uneven per-path throughput
//                           within an ECMP group (culprit is the upstream
//                           switch that chooses the branch);
//   process-rate decrease:  queue builds up while pps stays stable;
//   delay:                  neither pps nor queue depth changed, yet the
//                           pattern scores high;
//   drop:                   diagnosed on a separate trigger path (§4.3.2).

#include <optional>
#include <span>
#include <vector>

#include "net/routing.hpp"
#include "net/types.hpp"
#include "rca/types.hpp"
#include "sim/time.hpp"
#include "telemetry/tables.hpp"

namespace mars::rca {

struct SignatureConfig {
  /// Micro-burst: problem pps > burst_ratio * baseline pps.
  double burst_ratio = 3.0;
  /// Queue congestion: problem queue depth > congestion_ratio * baseline
  /// and above an absolute floor.
  double queue_congestion_ratio = 2.0;
  double queue_abs_min = 4.0;
  /// "pps remains relatively stable": |problem-baseline| <= tol * baseline.
  double stable_pps_tolerance = 0.5;
  /// ECMP unevenness: max branch share / min branch share in the problem
  /// window, which must also exceed `imbalance_growth` times the baseline
  /// ratio at the same decision point.
  double imbalance_ratio = 2.5;
  double imbalance_growth = 2.0;
  /// Records younger than this (relative to the trigger) are "problematic".
  /// Detection is fast, so the window hugs the trigger (one epoch back).
  sim::Time problem_window = 100 * sim::kMillisecond;
};

/// Per-flow behavioural features split at the problem boundary.
struct FlowFeatures {
  double baseline_pps = 0.0;
  double problem_pps = 0.0;
  double baseline_queue = 0.0;
  double problem_queue = 0.0;
  bool has_baseline = false;
  bool has_problem = false;

  [[nodiscard]] bool pps_spiked(const SignatureConfig& cfg) const {
    return has_baseline && has_problem &&
           problem_pps > cfg.burst_ratio * std::max(baseline_pps, 1.0);
  }
  [[nodiscard]] bool pps_stable(const SignatureConfig& cfg) const {
    if (!has_baseline || !has_problem) return true;
    const double base = std::max(baseline_pps, 1.0);
    return std::abs(problem_pps - baseline_pps) <=
           cfg.stable_pps_tolerance * base;
  }
  [[nodiscard]] bool queue_congested(const SignatureConfig& cfg) const {
    return has_problem && problem_queue >= cfg.queue_abs_min &&
           (!has_baseline ||
            problem_queue >
                cfg.queue_congestion_ratio * std::max(baseline_queue, 1.0));
  }
};

/// Extract features for one flow from a diagnosis snapshot. `problem_start`
/// splits baseline from problematic records; `epoch_period` converts
/// per-epoch counts to pps.
[[nodiscard]] FlowFeatures extract_flow_features(
    std::span<const telemetry::RtRecord> records, const net::FlowId& flow,
    sim::Time problem_start, sim::Time epoch_period);

/// Per-path packet totals for a flow within a record window [from, to)
/// (the ECMP throughput evidence). Keyed by PathID.
struct PathShare {
  std::uint32_t path_id = 0;
  std::uint64_t packets = 0;
};
[[nodiscard]] std::vector<PathShare> path_shares(
    std::span<const telemetry::RtRecord> records, const net::FlowId& flow,
    sim::Time from, sim::Time to);

/// Result of the ECMP check: the diverging switch and the observed ratio.
struct EcmpVerdict {
  net::SwitchId chooser = net::kInvalidSwitch;
  double ratio = 1.0;
};

/// Look for an ECMP split that BECAME uneven: the problem-window branch
/// ratio must exceed the configured threshold, be markedly worse than the
/// baseline ratio at the same decision point (a split that was always
/// lopsided — hash skew — is not the fault), and the heavy branch's
/// absolute packet rate must have grown (traffic moved TO it; a stalled
/// sibling path shifting shares does not count). `paths_by_id` maps
/// observed PathIDs to switch sequences (empty when the id could not be
/// decompressed); window durations (seconds) normalize the rates.
[[nodiscard]] std::optional<EcmpVerdict> detect_ecmp_imbalance(
    std::span<const PathShare> baseline, std::span<const PathShare> problem,
    const std::vector<std::pair<std::uint32_t, std::span<const net::SwitchId>>>&
        paths_by_id,
    const SignatureConfig& cfg, double baseline_seconds,
    double problem_seconds);

}  // namespace mars::rca
