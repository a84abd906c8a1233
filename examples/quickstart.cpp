// quickstart — the smallest complete MARS deployment.
//
// Builds a K=4 fat-tree, attaches the MARS data plane + control plane,
// runs background traffic, throttles one switch port mid-run, and prints
// the ranked culprit list MARS hands the operator.
//
//   $ quickstart
//
// Walk through the comments top to bottom; every step is the public API.

#include <cstdio>

#include "faults/injector.hpp"
#include "mars/mars.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "rca/report.hpp"
#include "workload/traffic_gen.hpp"

int main() {
  using namespace mars;
  using namespace mars::sim::literals;

  // 1. Build the network substrate: a K=4 fat-tree of BMv2-scale switches
  //    (8 Mbps links ~ a software switch's forwarding budget).
  auto ft = net::build_fat_tree(
      {.k = 4, .edge_agg_gbps = 0.007, .agg_core_gbps = 0.010});

  // 2. The discrete-event engine drives everything (one shard here; a
  //    scenario's "sim" block asks for more).
  net::Engine engine(ft.topology);
  net::Network& network = engine.network();
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(4096);
  }

  // 3. Deploy MARS: pipeline on every switch, PathID registry, control
  //    plane with per-flow reservoirs, RCA engine. One call wires it all.
  //    The reservoir knobs match this workload's noise floor (see
  //    default_scenario() for the rationale).
  MarsConfig mars_config;
  mars_config.controller.reservoir.relative_margin = 0.3;
  mars_config.controller.response_window = 500 * sim::kMillisecond;
  MarsSystem mars_system(network, mars_config);
  mars_system.start();

  // 4. Background traffic: 40 flows at ~250 pps between edge switches.
  workload::TrafficGenerator traffic(network, /*seed=*/7);
  workload::BackgroundConfig background;
  background.flows = 40;
  background.pps = 250.0;
  traffic.add_background(background, ft.edge, /*pods=*/4);
  traffic.start();

  // 5. Break something at t=3s: one port's processing rate collapses
  //    below 100 pps for one second (paper §5.2).
  faults::FaultInjector injector(network, traffic, /*seed=*/99);
  const auto truth = injector.inject(
      faults::FaultKind::kProcessRateDecrease, 3_s);

  // 6. Run six simulated seconds (a second of tail lets evidence stuck
  //    behind the throttled port flush and refine the diagnosis).
  engine.run(6_s);

  // 7. Read the diagnosis.
  std::printf("injected : %s\n",
              truth ? truth->describe().c_str() : "(nothing)");
  std::printf("packets  : %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(network.stats().delivered),
              static_cast<unsigned long long>(network.stats().dropped));
  const auto culprits = mars_system.culprits_for(3_s);
  if (culprits.empty()) {
    std::printf("MARS saw nothing anomalous.\n");
    return 0;
  }
  std::printf("MARS culprit list:\n");
  for (std::size_t i = 0; i < culprits.size() && i < 5; ++i) {
    std::printf("  %zu. %s\n", i + 1, culprits[i].describe().c_str());
  }
  const auto oh = mars_system.overheads();
  std::printf("overhead : %llu telemetry bytes, %llu diagnosis bytes\n",
              static_cast<unsigned long long>(oh.telemetry_bytes),
              static_cast<unsigned long long>(oh.diagnosis_bytes));

  // 8. The same diagnosis as the operator-facing incident report.
  if (!mars_system.diagnoses().empty()) {
    const auto& last = mars_system.diagnoses().back();
    std::printf("\n%s",
                rca::render_report(last.session, culprits, {}, &last.mining)
                    .c_str());
  }
  return 0;
}
