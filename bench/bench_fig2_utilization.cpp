// Fig. 2 — CDF of link utilization, core layer vs edge layer.
//
// The motivation for edge-only telemetry storage: core links run hotter
// than edge links, so pushing the storage burden to edge switches relieves
// the busiest part of the fabric. We run the background workload (inter-
// pod-heavy, as in data-center traffic studies) and print the utilization
// CDFs per layer — the core curve should sit to the right.
//
// Collection goes through the observability layer: scrape_network
// registers one lazy utilization gauge per link direction, classified
// edge/core by name prefix, and a virtual-time Sampler scrapes them into
// an epoch-aligned series. The CDF reads the final row.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "obs/net_scrape.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "util/stats.hpp"
#include "workload/traffic_gen.hpp"

namespace {

using namespace mars;
using namespace mars::sim::literals;

struct UtilSample {
  std::vector<double> edge;  // edge<->agg directions
  std::vector<double> core;  // agg<->core directions
};

UtilSample measure(double inter_pod_fraction, sim::Time duration,
                   std::uint64_t seed) {
  // Production fabrics oversubscribe the core (Benson et al. observe the
  // consequence: core links run hotter). 2:1 here.
  auto ft = net::build_fat_tree({.k = 4, .edge_agg_gbps = 0.008,
                                 .agg_core_gbps = 0.004});
  net::Engine engine(ft.topology);
  net::Network& network = engine.network();
  workload::TrafficGenerator traffic(network, seed);
  workload::BackgroundConfig cfg;
  cfg.flows = 40;
  cfg.pps = 250.0;
  cfg.inter_pod_fraction = inter_pod_fraction;
  traffic.add_background(cfg, ft.edge, 4);

  obs::MetricsRegistry registry;
  obs::scrape_network(network, registry,
                      {.per_port = false, .link_utilization = true,
                       .totals = false});
  obs::SeriesStore series;
  obs::Sampler sampler(engine.global(), registry, series,
                       {.period = 500 * sim::kMillisecond,
                        .until = duration});
  sampler.start();

  traffic.start();
  engine.run(duration);
  sampler.sample_now();  // final off-grid scrape at end-of-run
  registry.remove_gauges();

  // The gauge name carries the Fig. 2 layer classification:
  //   net.link.{edge|core}.{up}-{down}.util
  UtilSample sample;
  for (const std::string& name : series.names()) {
    const double value = series.last(name, 0.0);
    if (name.rfind("net.link.edge.", 0) == 0) {
      sample.edge.push_back(value);
    } else if (name.rfind("net.link.core.", 0) == 0) {
      sample.core.push_back(value);
    }
  }
  return sample;
}

void print_cdf(const char* label, std::vector<double> values) {
  std::printf("  %-11s", label);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::printf("  p%-3.0f=%5.3f", q * 100, util::quantile(values, q));
  }
  std::printf("  mean=%5.3f\n", util::mean(values));
}

void BM_UtilizationRun(benchmark::State& state) {
  for (auto _ : state) {
    auto sample = measure(0.7, 2_s, 99);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_UtilizationRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Fig. 2: link utilization CDF, edge vs core layer ==\n");
  std::printf("(inter-pod-heavy traffic concentrates on the core; the core "
              "CDF should sit right of the edge CDF)\n");
  for (const double frac : {0.5, 0.7, 0.9}) {
    std::printf(" inter-pod fraction %.1f:\n", frac);
    auto sample = measure(frac, 10_s, 7);
    print_cdf("edge links", sample.edge);
    print_cdf("core links", sample.core);
  }
  std::printf("\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
