#pragma once
// Traffic generation (paper §5.1–5.2).
//
// Background flows run at ~200 pps with lognormal packet sizes whose
// parameters match the published summary statistics of the UW data-center
// trace (Benson et al., IMC'10) — the trace itself is not redistributable,
// so this generative stand-in reproduces the properties the experiments
// depend on: per-flow rates, heavy-tailed sizes, diurnal load variation,
// and a traffic matrix skewed toward inter-pod destinations (which is what
// concentrates load on core links, Fig. 2).
//
// Micro-bursts are short-lived flows exceeding 1000 pps (Fig. 7a).
//
// Every flow draws its gaps and sizes from its own RNG stream, seeded by
// (generator seed, flow index), and schedules its arrivals on its own
// keyed lane on the source switch's shard (Network::flow_lane), so the
// packets a flow injects are the same at every shard count.

#include <cstdint>
#include <limits>
#include <vector>

#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/lane.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace mars::workload {

/// Sinusoidal load modulation (the Fig. 5 "traffic varies through the day"
/// effect, compressed into simulation time).
struct DiurnalConfig {
  bool enabled = false;
  double amplitude = 0.5;            ///< rate swings by ±amplitude
  sim::Time period = 60 * sim::kSecond;
  double phase = 0.0;
};

struct FlowSpec {
  net::FlowId flow;
  std::uint32_t flow_hash = 0;  ///< per-flow entropy (the "5-tuple")
  double pps = 200.0;
  /// Lognormal size parameters (of the underlying normal).
  double size_mu = 6.2;     ///< median ≈ 490 B
  double size_sigma = 0.6;
  /// Erlang shape of the inter-packet gaps: 1 = Poisson, larger = smoother
  /// (CV = 1/sqrt(shape)). Replayed data-center traces are much steadier
  /// than Poisson; 4 approximates their pacing.
  int arrival_shape = 4;
  sim::Time start = 0;
  sim::Time stop = std::numeric_limits<sim::Time>::max();
};

struct BackgroundConfig {
  int flows = 32;
  double pps = 200.0;  ///< paper §5.2: ~200 packets per second per flow
  /// Fraction of flows whose endpoints sit in different pods.
  double inter_pod_fraction = 0.7;
  DiurnalConfig diurnal;
};

class TrafficGenerator {
 public:
  TrafficGenerator(net::Network& network, std::uint64_t seed);

  /// Register a flow; takes effect when start() is called (or immediately
  /// if the generator is already running).
  void add_flow(const FlowSpec& spec);

  /// Create `config.flows` random background flows between edge switches.
  /// `edges` must list the fat-tree's edge switches pod-major (as
  /// FatTree::edge does) so the inter-pod fraction can be honoured.
  void add_background(const BackgroundConfig& config,
                      const std::vector<net::SwitchId>& edges,
                      int pods);

  /// Add a micro-burst: a transient flow at `pps` (>1000 per the paper)
  /// lasting `duration`. Returns its FlowId.
  net::FlowId add_burst(net::FlowId flow, double pps, sim::Time start,
                        sim::Time duration);

  /// Begin scheduling packet arrivals.
  void start();

  [[nodiscard]] const std::vector<FlowSpec>& flows() const { return flows_; }
  [[nodiscard]] std::uint64_t packets_injected() const;

 private:
  /// Every flow has its own rng and its own keyed lane on the source
  /// switch's shard: arrival events then replay identically at any shard
  /// count, and flows on different shards never race on shared generator
  /// state. The shared rng_ draws only placement, rates and burst hashes,
  /// all before the run.
  struct FlowRuntime {
    util::Rng rng{0};
    sim::Lane lane;
    std::uint64_t injected = 0;
  };

  void schedule_next(std::size_t flow_index);
  [[nodiscard]] double rate_multiplier(const FlowSpec& spec,
                                       sim::Time now) const;

  net::Network* network_;
  util::Rng rng_;
  std::uint64_t seed_;
  std::vector<FlowSpec> flows_;
  std::vector<FlowRuntime> runtime_;  ///< index-aligned with flows_
  DiurnalConfig diurnal_;
  bool running_ = false;
};

}  // namespace mars::workload
