#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <numbers>

namespace mars::workload {

TrafficGenerator::TrafficGenerator(net::Network& network, std::uint64_t seed)
    : network_(&network), rng_(seed), seed_(seed) {}

void TrafficGenerator::add_flow(const FlowSpec& spec) {
  flows_.push_back(spec);
  // Per-flow stream seeded from (generator seed, flow index) only — the
  // draw sequence cannot depend on how other flows interleave.
  const std::size_t index = flows_.size() - 1;
  FlowRuntime rt;
  std::uint64_t sm =
      seed_ ^ (0xA5A5A5A5A5A5A5A5ull + static_cast<std::uint64_t>(index));
  rt.rng = util::Rng(util::splitmix64(sm));
  rt.lane = network_->flow_lane(spec.flow.source, index);
  runtime_.push_back(std::move(rt));
  if (running_) schedule_next(index);
}

void TrafficGenerator::add_background(const BackgroundConfig& config,
                                      const std::vector<net::SwitchId>& edges,
                                      int pods) {
  diurnal_ = config.diurnal;
  const int per_pod = static_cast<int>(edges.size()) / std::max(pods, 1);
  std::vector<int> sink_load(edges.size(), 0);
  for (int i = 0; i < config.flows; ++i) {
    // Round-robin sources and least-loaded sinks: random placement lets a
    // single edge draw several heavy flows and saturate its links at
    // baseline, which buries every fault signal under ambient congestion.
    const auto src_idx = static_cast<std::size_t>(i) % edges.size();
    const int src_pod = static_cast<int>(src_idx) / std::max(per_pod, 1);
    const bool want_inter_pod = rng_.chance(config.inter_pod_fraction);
    std::size_t dst_idx = (src_idx + 1) % edges.size();
    int best_load = INT_MAX;
    for (std::size_t cand = 0; cand < edges.size(); ++cand) {
      if (cand == src_idx) continue;
      const int cand_pod = static_cast<int>(cand) / std::max(per_pod, 1);
      if (pods > 1 && want_inter_pod != (cand_pod != src_pod)) continue;
      if (sink_load[cand] < best_load) {
        best_load = sink_load[cand];
        dst_idx = cand;
      }
    }
    ++sink_load[dst_idx];
    FlowSpec spec;
    spec.flow = net::FlowId{edges[src_idx], edges[dst_idx]};
    spec.flow_hash = static_cast<std::uint32_t>(rng_());
    // Mild per-flow rate variation; a wide range lets a few heavy flows
    // oversubscribe one edge at baseline and drown fault signals.
    spec.pps = config.pps * rng_.uniform(0.85, 1.15);
    add_flow(spec);
  }
}

net::FlowId TrafficGenerator::add_burst(net::FlowId flow, double pps,
                                        sim::Time start, sim::Time duration) {
  FlowSpec spec;
  spec.flow = flow;
  spec.flow_hash = static_cast<std::uint32_t>(rng_());
  spec.pps = pps;
  spec.start = start;
  spec.stop = start + duration;
  add_flow(spec);
  return flow;
}

void TrafficGenerator::start() {
  running_ = true;
  for (std::size_t i = 0; i < flows_.size(); ++i) schedule_next(i);
}

std::uint64_t TrafficGenerator::packets_injected() const {
  std::uint64_t total = 0;
  for (const FlowRuntime& rt : runtime_) total += rt.injected;
  return total;
}

double TrafficGenerator::rate_multiplier(const FlowSpec& spec,
                                         sim::Time now) const {
  (void)spec;
  if (!diurnal_.enabled) return 1.0;
  const double t = sim::to_seconds(now) /
                   std::max(sim::to_seconds(diurnal_.period), 1e-9);
  return 1.0 + diurnal_.amplitude *
                   std::sin(2.0 * std::numbers::pi * t + diurnal_.phase);
}

void TrafficGenerator::schedule_next(std::size_t flow_index) {
  FlowRuntime& rt = runtime_[flow_index];
  const FlowSpec& spec = flows_[flow_index];
  const sim::Time now = rt.lane.now();
  if (now >= spec.stop) return;

  const double mult = std::max(rate_multiplier(spec, now), 0.05);
  const double rate = spec.pps * mult;  // packets per second
  // Erlang(shape) gap: sum of `shape` exponentials at rate shape*rate
  // keeps the mean at 1/rate while smoothing the variance.
  const int shape = std::max(spec.arrival_shape, 1);
  double gap_s = 0.0;
  for (int i = 0; i < shape; ++i) {
    gap_s += rt.rng.exponential(rate * shape);
  }
  sim::Time next =
      std::max<sim::Time>(now, spec.start) +
      static_cast<sim::Time>(gap_s * static_cast<double>(sim::kSecond));
  if (next < spec.start) next = spec.start;
  if (next >= spec.stop) return;

  auto arrival = [this, flow_index] {
    FlowRuntime& r = runtime_[flow_index];
    const FlowSpec& s = flows_[flow_index];
    const double raw = r.rng.lognormal(s.size_mu, s.size_sigma);
    const auto size = static_cast<std::uint32_t>(
        std::clamp(raw, 64.0, 1500.0));
    network_->inject(s.flow, s.flow_hash, size);
    ++r.injected;
    schedule_next(flow_index);
  };
  static_assert(sim::event_fn_fits_inline<decltype(arrival)>,
                "per-packet arrival closure must fit the inline buffer");
  rt.lane.schedule_at(next, std::move(arrival));
}

}  // namespace mars::workload
