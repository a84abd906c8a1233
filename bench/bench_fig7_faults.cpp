// Fig. 7 — what the injected faults look like from the network:
//   (a) a micro-burst drives a transient latency spike;
//   (b) an ECMP imbalance splits the throughput of the two uplinks of the
//       skewed switch and raises the loaded branch's latency.
// We run the scenario substrate MARS-free and print the raw time series.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "faults/schedule.hpp"
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

struct Substrate {
  net::FatTree ft = net::build_fat_tree(
      {.k = 4, .edge_agg_gbps = 0.007, .agg_core_gbps = 0.010});
  net::Engine engine{ft.topology};
  net::Network& network = engine.network();
  workload::TrafficGenerator traffic{network, 3};

  Substrate() {
    for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
      network.node(sw).set_queue_capacity(4096);
    }
    workload::BackgroundConfig cfg;
    cfg.flows = 40;
    cfg.pps = 250;
    traffic.add_background(cfg, ft.edge, 4);
  }
};

void fig7a() {
  std::printf("== Fig. 7(a): latency under a micro-burst (fault at 2.0s, "
              "1s long, >2000 pps) ==\n");
  Substrate s;
  std::map<int, std::vector<double>> latency;  // per-100ms bucket
  s.network.set_delivery_callback([&](const net::Packet& p, sim::Time t) {
    latency[static_cast<int>(t / 100_ms)].push_back(
        sim::to_millis(t - p.created));
  });
  faults::FaultInjector injector(s.network, s.traffic, 0xFA17);
  s.traffic.start();
  injector.inject(faults::FaultKind::kMicroBurst, 2_s);
  s.engine.run(4_s);

  std::printf("  t(s) | p50 latency ms | p99 latency ms\n");
  for (const auto& [bucket, values] : latency) {
    if (bucket % 2) continue;  // print every 200ms
    std::printf("  %4.1f | %14.2f | %14.2f\n", bucket / 10.0,
                util::quantile(values, 0.5), util::quantile(values, 0.99));
  }
}

void fig7b() {
  std::printf("\n== Fig. 7(b): ECMP imbalance at one edge switch (weights "
              "1:1 -> 1:9 at 2.0s for 1s) ==\n");
  Substrate s;
  const net::SwitchId chooser = s.ft.edge[0];

  // Per-bucket p99 latency of flows SOURCED at the chooser.
  std::map<int, std::vector<double>> latency;
  s.network.set_delivery_callback([&](const net::Packet& p, sim::Time t) {
    if (p.flow.source != chooser) return;
    latency[static_cast<int>(t / 100_ms)].push_back(
        sim::to_millis(t - p.created));
  });

  // Sample the chooser's uplink tx counters every 100ms via the
  // observability layer: scrape_network exports them as lazy gauges and
  // the epoch-aligned Sampler turns them into a joined time series.
  obs::MetricsRegistry registry;
  obs::scrape_network(s.network, registry,
                      {.per_port = true, .link_utilization = false,
                       .totals = false});
  obs::SeriesStore series;
  obs::Sampler sampler(s.engine.global(), registry, series,
                       {.period = 100_ms, .until = 4_s});
  sampler.start();

  // Apply and lift the skew through the injector's fault schedule: a
  // pinned-target ECMP event with a 1:9 ratio (imbalance range collapsed
  // to 9) reproduces the hand-rolled weight rewrite deterministically.
  faults::InjectorConfig icfg;
  icfg.imbalance_min = 9;
  icfg.imbalance_max = 9;
  faults::FaultInjector injector(s.network, s.traffic, 0xFA17, icfg);
  faults::FaultEvent skew;
  skew.kind = faults::FaultKind::kEcmpImbalance;
  skew.at = 2_s;
  skew.duration = 1_s;
  skew.target_switch = chooser;
  faults::FaultSchedule schedule;
  schedule.add(skew);
  injector.apply(schedule);

  s.traffic.start();
  s.engine.run(4_s);
  registry.remove_gauges();

  const std::string sw_prefix = "net.sw" + std::to_string(chooser) + ".";
  const std::vector<double>* tx0 = series.column(sw_prefix + "p0.tx_packets");
  const std::vector<double>* tx1 = series.column(sw_prefix + "p1.tx_packets");

  std::printf("  t(s) | uplink0 pps | uplink1 pps | p99 latency ms (flows "
              "from the chooser)\n");
  for (std::size_t bucket = 2; bucket <= 40; bucket += 2) {
    if (tx0 == nullptr || tx1 == nullptr || bucket >= tx0->size()) continue;
    const double pps0 = ((*tx0)[bucket] - (*tx0)[bucket - 2]) / 0.2;
    const double pps1 = ((*tx1)[bucket] - (*tx1)[bucket - 2]) / 0.2;
    const auto& lat = latency[static_cast<int>(bucket) - 1];
    std::printf("  %4.1f | %11.0f | %11.0f | %10.2f\n",
                static_cast<double>(bucket) / 10.0, pps0, pps1,
                util::quantile(lat, 0.99));
  }
}

void BM_FaultScenarioRun(benchmark::State& state) {
  for (auto _ : state) {
    Substrate s;
    faults::FaultInjector injector(s.network, s.traffic, 0xFA17);
    s.traffic.start();
    injector.inject(faults::FaultKind::kMicroBurst, 2_s);
    s.engine.run(4_s);
    benchmark::DoNotOptimize(s.network.stats().delivered);
  }
}
BENCHMARK(BM_FaultScenarioRun)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  fig7a();
  fig7b();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
