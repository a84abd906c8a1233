// Randomized (seeded, deterministic) stress tests of the substrate:
// arbitrary interleavings of traffic, fault application and removal must
// never violate conservation or crash, and the MARS pipeline must keep
// its tables consistent throughout.

#include <gtest/gtest.h>

#include <span>

#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "path_recorder.hpp"
#include "switch_faults.hpp"
#include "util/rng.hpp"
#include "workload/traffic_gen.hpp"

namespace mars {
namespace {

using namespace mars::sim::literals;

class NetFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetFuzzTest, ConservationUnderRandomFaultChurn) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);

  auto ft = net::build_fat_tree(
      {.k = 4, .edge_agg_gbps = 0.006, .agg_core_gbps = 0.010});
  net::Engine engine{ft.topology};
  net::Network& network = engine.network();
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    network.node(sw).set_queue_capacity(64 + rng.below(512));
  }

  workload::TrafficGenerator traffic(network, seed * 31 + 1);
  workload::BackgroundConfig cfg;
  cfg.flows = 16 + static_cast<int>(rng.below(24));
  cfg.pps = 150 + static_cast<double>(rng.below(200));
  traffic.add_background(cfg, ft.edge, 4);
  traffic.start();

  // Random fault churn: every ~200ms flip a random knob on a random port.
  for (int step = 0; step < 15; ++step) {
    const auto at = static_cast<sim::Time>(200_ms * step + rng.below(100));
    const auto sw = static_cast<net::SwitchId>(
        rng.below(network.switch_count()));
    const auto ports = network.topology().port_count(sw);
    if (ports == 0) continue;
    const auto port = static_cast<net::PortId>(rng.below(ports));
    const int knob = static_cast<int>(rng.below(4));
    engine.global().schedule_at(at, [&network, sw, port, knob, &rng] {
      auto& node = network.node(sw);
      switch (knob) {
        case 0: node.set_max_pps(port, 30.0 + rng.uniform() * 200.0); break;
        case 1: node.set_extra_delay(port, 1_ms + rng.below(50) * 1_ms);
          break;
        case 2: node.set_drop_probability(port, rng.uniform() * 0.9); break;
        default: test_support::clear_faults(node); break;
      }
    });
  }
  engine.run(4_s);

  const auto& stats = network.stats();
  EXPECT_GT(stats.injected, 100u);
  // Exact conservation at the horizon: every injected packet was
  // delivered, dropped or refused, or still holds a pool slot (queued, in
  // service or on a link).
  EXPECT_EQ(stats.injected, stats.delivered + stats.dropped +
                                stats.unroutable + network.pool_in_flight());
  EXPECT_EQ(stats.unroutable, 0u);
  // Every buffered packet is one of those slots.
  std::size_t queued = 0;
  for (net::SwitchId sw = 0; sw < network.switch_count(); ++sw) {
    queued += network.node(sw).total_queue_depth();
  }
  EXPECT_LE(queued, network.pool_in_flight());
}

TEST_P(NetFuzzTest, PipelinePathIdsAlwaysDecompress) {
  const std::uint64_t seed = GetParam();
  auto ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& network = engine.network();
  control::PathRegistry registry(ft.topology, network.routing(), {});
  dataplane::MarsPipeline pipeline(ft.topology.switch_count(), {}, nullptr);
  pipeline.set_control_mat(registry.mat());
  network.add_observer(pipeline);
  test_support::PathRecorder paths;
  network.add_observer(paths);

  int checked = 0;
  network.set_delivery_callback([&](const net::Packet& p, sim::Time) {
    const std::span<const net::SwitchId> path = registry.lookup(p.path_id);
    ASSERT_FALSE(path.empty()) << "PathID " << p.path_id;
    EXPECT_EQ(net::SwitchPath(path.begin(), path.end()), paths.path_of(p));
    ++checked;
  });

  workload::TrafficGenerator traffic(network, seed);
  workload::BackgroundConfig cfg;
  cfg.flows = 32;
  traffic.add_background(cfg, ft.edge, 4);
  traffic.start();
  engine.run(2_s);
  EXPECT_GT(checked, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace mars
