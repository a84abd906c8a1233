// incast_storm — the classic datacenter stressor on the MARS substrate:
// many edge switches fire synchronized bursts at one sink.
//
// This example doubles as a limitations demo (paper §5.6): incast flows
// are often NEW flows (no reservoir history, default 10s threshold), and
// the storm's own queue delays its telemetry, so the evidence surfaces
// one collection late. MARS still triggers and localizes the congested
// region; whether the top entries are labelled micro-burst depends on
// how much of the storm rode on flows with warmed thresholds. The final
// line reports which happened on this run.
//
//   $ incast_storm [sources] [seed]

#include <cstdio>
#include <cstdlib>

#include "mars/mars.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "rca/report.hpp"
#include "workload/trace.hpp"
#include "workload/traffic_gen.hpp"

int main(int argc, char** argv) {
  using namespace mars;
  using namespace mars::sim::literals;

  const int sources =
      argc > 1 ? std::clamp(std::atoi(argv[1]), 1, 7) : 5;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 23;

  auto ft = net::build_fat_tree(
      {.k = 4, .edge_agg_gbps = 0.007, .agg_core_gbps = 0.010});
  net::Engine engine(ft.topology);
  net::Network& network = engine.network();
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(4096);
  }

  MarsConfig mars_config;
  mars_config.controller.reservoir.relative_margin = 0.3;
  MarsSystem mars(network, mars_config);
  mars.start();

  // Steady background so the reservoirs have a baseline to defend.
  workload::TrafficGenerator traffic(network, seed);
  workload::BackgroundConfig background;
  background.flows = 32;
  background.pps = 200.0;
  traffic.add_background(background, ft.edge, 4);
  traffic.start();

  // The storm: `sources` edges all burst into edge[0] at t=3s.
  workload::IncastConfig incast;
  incast.sink = ft.edge[0];
  for (int i = 1; i <= sources; ++i) {
    incast.sources.push_back(ft.edge[static_cast<std::size_t>(i)]);
  }
  incast.packets_per_source = 1200;
  incast.size_bytes = 900;
  incast.start = 3_s;
  incast.spacing = 800_us;  // ~1250 pps per source, sustained ~1s
  const auto storm = workload::make_incast(incast, seed);
  storm.replay(network);

  engine.run(6_s);

  std::printf("incast: %d sources x %d packets into s%u at t=3s\n", sources,
              incast.packets_per_source, incast.sink);
  std::printf("network: %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(network.stats().delivered),
              static_cast<unsigned long long>(network.stats().dropped));

  const auto culprits = mars.culprits_for(3_s);
  if (mars.diagnoses().empty()) {
    std::printf("MARS never triggered (storm too mild for this fabric)\n");
    return 0;
  }
  std::printf("\n%s", rca::render_report(mars.diagnoses().back().session,
                                         culprits, {},
                                         &mars.diagnoses().back().mining)
                          .c_str());

  // How much of the list names the storm? Count flow-level bursts into
  // the sink anywhere in the list, and storm-region locations in the top
  // five (the sink, its aggs, or a storm source).
  int burst_entries = 0, region_hits = 0;
  for (std::size_t i = 0; i < culprits.size(); ++i) {
    const auto& c = culprits[i];
    if (c.cause == rca::CauseKind::kMicroBurst &&
        c.flow.sink == incast.sink) {
      ++burst_entries;
    }
    if (i < 5) {
      for (const auto sw : c.location) {
        const bool in_region =
            sw == incast.sink ||
            std::find(incast.sources.begin(), incast.sources.end(), sw) !=
                incast.sources.end() ||
            network.topology().port_towards(sw, incast.sink).has_value();
        if (in_region) {
          ++region_hits;
          break;
        }
      }
    }
  }
  std::printf("flow-level burst entries naming s%u: %d\n", incast.sink,
              burst_entries);
  std::printf("top-5 entries inside the storm region: %d\n", region_hits);
  if (burst_entries == 0) {
    std::printf("(cold-start flows: the storm rode on FlowIDs without "
                "reservoir history — the paper's §5.6 limitation)\n");
  }
  return 0;
}
