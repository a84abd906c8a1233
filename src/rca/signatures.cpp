#include "rca/signatures.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "util/stats.hpp"

namespace mars::rca {

FlowFeatures extract_flow_features(
    std::span<const telemetry::RtRecord> records, const net::FlowId& flow,
    sim::Time problem_start, sim::Time epoch_period) {
  std::vector<double> base_pps, prob_pps, base_q, prob_q;
  const double period_s = sim::to_seconds(epoch_period);
  for (const auto& rec : records) {
    if (rec.flow != flow) continue;
    // Inflow rate from the SOURCE switch's count (carried in the telemetry
    // header): a queue that stalls and then flushes inflates sink-side
    // arrival counts, but the source count only moves when the flow itself
    // bursts — which is exactly the micro-burst signature.
    const double pps = static_cast<double>(rec.src_last_epoch_count) /
                       std::max(period_s, 1e-9);
    const auto q = static_cast<double>(rec.total_queue_depth);
    if (rec.sink_timestamp >= problem_start) {
      prob_pps.push_back(pps);
      prob_q.push_back(q);
    } else {
      base_pps.push_back(pps);
      base_q.push_back(q);
    }
  }
  FlowFeatures f;
  f.has_baseline = !base_pps.empty();
  f.has_problem = !prob_pps.empty();
  if (f.has_baseline) {
    f.baseline_pps = util::median(base_pps);
    f.baseline_queue = util::median(base_q);
  }
  if (f.has_problem) {
    // Upper quartile: a fault's records dominate the problem window but
    // can straggle in behind the congestion they measure, so the median
    // may still be pre-fault; a single ambient spike must not flip the
    // signature either, which rules out the maximum.
    f.problem_pps = util::quantile(prob_pps, 0.75);
    f.problem_queue = util::quantile(prob_q, 0.75);
  }
  return f;
}

std::vector<PathShare> path_shares(
    std::span<const telemetry::RtRecord> records, const net::FlowId& flow,
    sim::Time from, sim::Time to) {
  std::unordered_map<std::uint32_t, std::uint64_t> totals;
  for (const auto& rec : records) {
    if (rec.flow != flow || rec.sink_timestamp < from ||
        rec.sink_timestamp >= to) {
      continue;
    }
    // The record carries complete per-path counts from the Egress Table,
    // so paths the sampler skipped this epoch still contribute.
    for (std::uint8_t i = 0; i < rec.path_count_n; ++i) {
      totals[rec.path_counts[i].path_id] += rec.path_counts[i].packets;
    }
  }
  std::vector<PathShare> out;
  out.reserve(totals.size());
  for (const auto& [id, packets] : totals) out.push_back({id, packets});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.path_id < b.path_id;
  });
  return out;
}

namespace {

/// Per-decision-point next-hop packet totals for one window.
using BranchMap =
    std::unordered_map<net::SwitchId, std::map<net::SwitchId, std::uint64_t>>;

BranchMap branch_totals(
    std::span<const PathShare> shares,
    const std::unordered_map<std::uint32_t, std::span<const net::SwitchId>>&
        lookup) {
  BranchMap points;
  for (const auto& share : shares) {
    const auto it = lookup.find(share.path_id);
    if (it == lookup.end()) continue;
    const std::span<const net::SwitchId> path = it->second;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      points[path[i]][path[i + 1]] += share.packets;
    }
  }
  return points;
}

double branch_ratio(const std::map<net::SwitchId, std::uint64_t>& branches) {
  if (branches.size() < 2) return 1.0;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& [next, packets] : branches) {
    lo = std::min(lo, packets);
    hi = std::max(hi, packets);
  }
  // +1 guards the all-on-one-branch case (lo may be 0).
  return static_cast<double>(hi) /
         static_cast<double>(std::max<std::uint64_t>(lo, 1));
}

}  // namespace

std::optional<EcmpVerdict> detect_ecmp_imbalance(
    std::span<const PathShare> baseline, std::span<const PathShare> problem,
    const std::vector<std::pair<std::uint32_t, std::span<const net::SwitchId>>>&
        paths_by_id,
    const SignatureConfig& cfg, double baseline_seconds,
    double problem_seconds) {
  // The flow must have been seen on >= 2 distinct paths across the two
  // windows combined (one per window suffices: a wholesale branch switch).
  std::unordered_set<std::uint32_t> distinct_paths;
  for (const auto& s : baseline) distinct_paths.insert(s.path_id);
  for (const auto& s : problem) distinct_paths.insert(s.path_id);
  if (distinct_paths.size() < 2) return std::nullopt;

  std::unordered_map<std::uint32_t, std::span<const net::SwitchId>> lookup;
  for (const auto& [id, path] : paths_by_id) lookup.emplace(id, path);

  const BranchMap base_points = branch_totals(baseline, lookup);
  const BranchMap prob_points = branch_totals(problem, lookup);
  baseline_seconds = std::max(baseline_seconds, 1e-3);
  problem_seconds = std::max(problem_seconds, 1e-3);

  std::optional<EcmpVerdict> best;
  for (const auto& [sw, branches] : prob_points) {
    double base_ratio = 1.0;
    // A branch that vanished in the problem window counts as zero; the
    // decision point must offer >= 2 branches across the two windows
    // combined (a flow that moved wholesale shows one branch per window).
    auto merged = branches;
    if (const auto it = base_points.find(sw); it != base_points.end()) {
      base_ratio = branch_ratio(it->second);
      for (const auto& [next, n] : it->second) merged.try_emplace(next, 0);
    }
    if (merged.size() < 2) continue;
    const double ratio = branch_ratio(merged);
    if (ratio < cfg.imbalance_ratio) continue;
    if (ratio < cfg.imbalance_growth * base_ratio) continue;  // always skewed

    // Rebalancing MOVES traffic: the heavy branch's absolute rate must
    // have grown. A share shift caused by the other branch stalling (a
    // process-rate or drop fault downstream) gains nothing here.
    net::SwitchId heavy = net::kInvalidSwitch;
    std::uint64_t heavy_packets = 0;
    for (const auto& [next, n] : merged) {
      if (n >= heavy_packets) {
        heavy_packets = n;
        heavy = next;
      }
    }
    const double heavy_problem_rate =
        static_cast<double>(heavy_packets) / problem_seconds;
    double heavy_base_rate = 0.0;
    if (const auto it = base_points.find(sw); it != base_points.end()) {
      if (const auto jt = it->second.find(heavy); jt != it->second.end()) {
        heavy_base_rate =
            static_cast<double>(jt->second) / baseline_seconds;
      }
    }
    if (heavy_problem_rate < 1.2 * std::max(heavy_base_rate, 1.0)) continue;

    if (!best || ratio > best->ratio) best = EcmpVerdict{sw, ratio};
  }
  return best;
}

}  // namespace mars::rca
