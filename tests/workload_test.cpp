#include "workload/traffic_gen.hpp"

#include <gtest/gtest.h>

#include <map>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"

namespace mars::workload {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  TrafficGenerator gen{net, 7};
};

TEST(TrafficGeneratorTest, FlowRateApproximatesSpec) {
  Fixture f;
  FlowSpec spec;
  spec.flow = {f.ft.edge[0], f.ft.edge[1]};
  spec.pps = 200.0;
  f.gen.add_flow(spec);
  f.gen.start();
  f.engine.run(5_s);
  // Poisson with rate 200/s over 5s: ~1000 packets, generous tolerance.
  EXPECT_NEAR(static_cast<double>(f.gen.packets_injected()), 1000.0, 150.0);
}

TEST(TrafficGeneratorTest, FlowRespectsStartStop) {
  Fixture f;
  FlowSpec spec;
  spec.flow = {f.ft.edge[0], f.ft.edge[1]};
  spec.pps = 1000.0;
  spec.start = 1_s;
  spec.stop = 2_s;
  f.gen.add_flow(spec);
  f.gen.start();
  f.engine.run(900_ms);
  EXPECT_EQ(f.gen.packets_injected(), 0u);
  f.engine.run(5_s);
  EXPECT_NEAR(static_cast<double>(f.gen.packets_injected()), 1000.0, 200.0);
}

TEST(TrafficGeneratorTest, PacketSizesWithinEthernetBounds) {
  Fixture f;
  std::vector<std::uint32_t> sizes;
  f.net.set_delivery_callback([&](const net::Packet& p, sim::Time) {
    sizes.push_back(p.size_bytes);
  });
  FlowSpec spec;
  spec.flow = {f.ft.edge[0], f.ft.edge[1]};
  spec.pps = 500.0;
  f.gen.add_flow(spec);
  f.gen.start();
  f.engine.run(2_s);
  ASSERT_GT(sizes.size(), 100u);
  for (const auto s : sizes) {
    EXPECT_GE(s, 64u);
    EXPECT_LE(s, 1500u);
  }
}

TEST(TrafficGeneratorTest, BackgroundHonoursInterPodFraction) {
  Fixture f;
  BackgroundConfig cfg;
  cfg.flows = 200;
  cfg.inter_pod_fraction = 0.8;
  f.gen.add_background(cfg, f.ft.edge, 4);
  int inter = 0;
  for (const auto& spec : f.gen.flows()) {
    ASSERT_NE(spec.flow.source, spec.flow.sink);
    const int per_pod = 2;
    const int src_pod = static_cast<int>(spec.flow.source >= 0
        ? (std::find(f.ft.edge.begin(), f.ft.edge.end(), spec.flow.source) -
           f.ft.edge.begin()) / per_pod : 0);
    const int dst_pod = static_cast<int>(
        (std::find(f.ft.edge.begin(), f.ft.edge.end(), spec.flow.sink) -
         f.ft.edge.begin()) / per_pod);
    inter += (src_pod != dst_pod);
  }
  EXPECT_NEAR(inter, 160, 30);
}

TEST(TrafficGeneratorTest, BurstExceedsBackgroundRate) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.gen.add_burst(flow, 1500.0, 1_s, 1_s);
  f.gen.start();
  f.engine.run(3_s);
  // ~1500 packets within the burst second (paper: > 1000 pps).
  EXPECT_GT(f.gen.packets_injected(), 1000u);
  EXPECT_LT(f.gen.packets_injected(), 2200u);
}

TEST(TrafficGeneratorTest, DiurnalModulationChangesRateOverTime) {
  Fixture f;
  BackgroundConfig cfg;
  cfg.flows = 1;
  cfg.pps = 400.0;
  cfg.diurnal.enabled = true;
  cfg.diurnal.amplitude = 0.9;
  cfg.diurnal.period = 8_s;
  f.gen.add_background(cfg, f.ft.edge, 4);
  f.gen.start();
  // Count arrivals per second over one full period.
  std::map<int, int> per_second;
  f.net.set_delivery_callback([&](const net::Packet&, sim::Time t) {
    ++per_second[static_cast<int>(sim::to_seconds(t))];
  });
  f.engine.run(8_s);
  int lo = INT_MAX, hi = 0;
  for (const auto& [sec, n] : per_second) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  // Peak-to-trough swing must be pronounced under amplitude 0.9.
  EXPECT_GT(hi, 2 * std::max(lo, 1));
}

TEST(TrafficGeneratorTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    auto ft = net::build_fat_tree({.k = 4});
    net::Engine engine{ft.topology};
    net::Network& net = engine.network();
    TrafficGenerator gen{net, seed};
    BackgroundConfig cfg;
    cfg.flows = 8;
    gen.add_background(cfg, ft.edge, 4);
    gen.start();
    engine.run(2 * sim::kSecond);
    return gen.packets_injected();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace mars::workload
