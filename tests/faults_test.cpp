#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"

namespace mars::faults {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  workload::TrafficGenerator gen{net, 3};
  FaultInjector injector{net, gen, 17};

  Fixture() {
    workload::BackgroundConfig cfg;
    cfg.flows = 8;
    gen.add_background(cfg, ft.edge, 4);
    gen.start();
  }
};

TEST(FaultInjectorTest, MicroBurstAddsBurstFlow) {
  Fixture f;
  const auto truth = f.injector.inject(FaultKind::kMicroBurst, 1_s);
  ASSERT_TRUE(truth.has_value());
  EXPECT_EQ(truth->kind, FaultKind::kMicroBurst);
  EXPECT_NE(truth->flow.source, net::kInvalidSwitch);
  const auto before = f.gen.flows().size();
  EXPECT_EQ(before, 9u);  // 8 background + 1 burst
}

TEST(FaultInjectorTest, EcmpRewritesWeightsAndRestores) {
  Fixture f;
  const auto truth = f.injector.inject(FaultKind::kEcmpImbalance, 1_s);
  ASSERT_TRUE(truth.has_value());
  const auto sw = truth->switch_id;
  ASSERT_NE(sw, net::kInvalidSwitch);
  f.engine.run(1500_ms);  // mid-fault
  bool skewed = false;
  for (net::SwitchId dst = 0; dst < f.net.switch_count(); ++dst) {
    const auto& g = f.net.routing().group(sw, dst);
    for (const auto& m : g.members) skewed |= (m.weight > 1);
  }
  EXPECT_TRUE(skewed);
  f.engine.run(3_s);  // past restoration
  for (net::SwitchId dst = 0; dst < f.net.switch_count(); ++dst) {
    for (const auto& m : f.net.routing().group(sw, dst).members) {
      EXPECT_EQ(m.weight, 1u);
    }
  }
}

TEST(FaultInjectorTest, ProcessRateFaultOnLoadedPort) {
  Fixture f;
  const auto truth = f.injector.inject(FaultKind::kProcessRateDecrease, 1_s);
  ASSERT_TRUE(truth.has_value());
  EXPECT_NE(truth->switch_id, net::kInvalidSwitch);
  // The chosen switch lies on some flow's path (loaded).
  bool on_path = false;
  for (const auto& spec : f.gen.flows()) {
    net::SwitchId at = spec.flow.source;
    for (int hop = 0; hop < 8 && at != spec.flow.sink; ++hop) {
      if (at == truth->switch_id) on_path = true;
      net::PortId out = 0;
      if (!f.net.routing().select_port(at, spec.flow.sink, spec.flow_hash,
                                       out)) {
        break;
      }
      at = f.net.topology().peer(at, out).neighbor;
    }
    on_path |= (truth->switch_id == spec.flow.sink);
  }
  EXPECT_TRUE(on_path);
}

TEST(FaultInjectorTest, DropFaultCausesLoss) {
  Fixture f;
  const auto truth = f.injector.inject(FaultKind::kDrop, 1_s);
  ASSERT_TRUE(truth.has_value());
  f.engine.run(3_s);
  EXPECT_GT(f.net.stats().dropped, 0u);
}

TEST(FaultInjectorTest, DelayFaultRestoredAfterDuration) {
  Fixture f;
  InjectorConfig cfg;
  cfg.duration = 500_ms;
  FaultInjector inj{f.net, f.gen, 5, cfg};
  const auto truth = inj.inject(FaultKind::kDelay, 1_s);
  ASSERT_TRUE(truth.has_value());
  f.engine.run(5_s);
  // After clear_faults, traffic flows without the extra delay: compare a
  // probe's transit to the healthy baseline by injecting directly.
  std::vector<sim::Time> transits;
  f.net.set_delivery_callback([&](const net::Packet& p, sim::Time t) {
    transits.push_back(t - p.created);
  });
  f.net.inject({truth->switch_id == f.ft.edge[0] ? f.ft.edge[1] : f.ft.edge[0],
                truth->switch_id == f.ft.edge[0] ? f.ft.edge[0]
                                                 : f.ft.edge[1]},
               1, 500);
  f.engine.run(10_s);
  ASSERT_FALSE(transits.empty());
  EXPECT_LT(transits.back(), 5_ms);
}

TEST(FaultInjectorTest, HistoryAccumulates) {
  Fixture f;
  f.injector.inject(FaultKind::kDrop, 1_s);
  f.injector.inject(FaultKind::kDelay, 2_s);
  EXPECT_EQ(f.injector.injected().size(), 2u);
}

TEST(FaultInjectorTest, DescribeIsHumanReadable) {
  GroundTruth t;
  t.kind = FaultKind::kEcmpImbalance;
  t.switch_id = 9;
  EXPECT_EQ(t.describe(), "ecmp-imbalance @ s9");
  t.kind = FaultKind::kDrop;
  t.port = 2;
  EXPECT_EQ(t.describe(), "drop @ s9 port 2");
}

}  // namespace
}  // namespace mars::faults
