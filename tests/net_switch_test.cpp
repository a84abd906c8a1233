#include "net/network.hpp"
#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "obs/net_scrape.hpp"
#include "obs/registry.hpp"
#include "path_recorder.hpp"
#include "sim/time.hpp"
#include "switch_faults.hpp"

namespace mars::net {
namespace {

using namespace mars::sim::literals;

struct Delivery {
  Packet pkt;
  sim::Time at;
};

struct Fixture {
  FatTree ft = build_fat_tree({.k = 4});
  Engine engine{ft.topology};
  Network& net = engine.network();
  test_support::PathRecorder paths;
  std::vector<Delivery> deliveries;

  Fixture() {
    net.add_observer(paths);
    net.set_delivery_callback([this](const Packet& p, sim::Time t) {
      deliveries.push_back(Delivery{p, t});
    });
  }
};

TEST(NetworkTest, DeliversAPacketEndToEnd) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.net.inject(flow, 0xABCD, 1000);
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  const auto& d = f.deliveries[0];
  EXPECT_EQ(d.pkt.flow, flow);
  // Inter-pod path visits 5 switches.
  const SwitchPath& path = f.paths.path_of(d.pkt);
  EXPECT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), flow.source);
  EXPECT_EQ(path.back(), flow.sink);
  EXPECT_GT(d.at, 0);
  EXPECT_EQ(f.net.stats().delivered, 1u);
  EXPECT_EQ(f.net.stats().injected, 1u);
}

TEST(NetworkTest, LatencyIncludesSerializationAndPropagation) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};  // intra-pod: 3 switches
  f.net.inject(flow, 1, 1250);  // 1250B at 10Gbps = 1us serialization
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  // 2 store-and-forward hops: 2 * (1us serialization + 1us propagation).
  EXPECT_EQ(f.deliveries[0].at, 4_us);
}

TEST(NetworkTest, SamePacketsSameFlowFollowOnePath) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[6]};
  for (int i = 0; i < 20; ++i) f.net.inject(flow, 777, 500);
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 20u);
  for (const auto& d : f.deliveries) {
    EXPECT_EQ(f.paths.path_of(d.pkt), f.paths.path_of(f.deliveries[0].pkt));
  }
}

TEST(NetworkTest, ConservationAcrossManyFlows) {
  Fixture f;
  int injected = 0;
  for (std::uint32_t h = 0; h < 50; ++h) {
    for (std::size_t s = 0; s < f.ft.edge.size(); ++s) {
      const FlowId flow{f.ft.edge[s], f.ft.edge[(s + 3) % f.ft.edge.size()]};
      f.net.inject(flow, h * 7919 + static_cast<std::uint32_t>(s), 800);
      ++injected;
    }
  }
  f.engine.run();
  const auto& st = f.net.stats();
  EXPECT_EQ(st.injected, static_cast<std::uint64_t>(injected));
  EXPECT_EQ(st.injected, st.delivered + st.dropped + st.unroutable);
  EXPECT_EQ(st.dropped, 0u);
}

TEST(NetworkTest, ProcessRateFaultBuildsQueueAndDelays) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  // Find the egress port flow uses, then throttle it hard.
  PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 42, out));
  f.net.node(flow.source).set_max_pps(out, 100.0);  // paper: < 100 pps

  const auto t0 = f.engine.now();
  for (int i = 0; i < 10; ++i) f.net.inject(flow, 42, 500);
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 10u);
  // At 100 pps the 10th packet leaves the source no earlier than 90ms.
  EXPECT_GE(f.deliveries.back().at - t0, 90_ms);
}

TEST(NetworkTest, DropFaultDropsEverything) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 9, out));
  f.net.node(flow.source).set_drop_probability(out, 1.0);
  for (int i = 0; i < 5; ++i) f.net.inject(flow, 9, 500);
  f.engine.run();
  EXPECT_EQ(f.deliveries.size(), 0u);
  EXPECT_EQ(f.net.stats().dropped, 5u);
  EXPECT_EQ(f.net.node(flow.source).counters(out).drops, 5u);
}

TEST(NetworkTest, ExtraDelayFaultDelaysWithoutQueueing) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));

  f.net.inject(flow, 5, 1250);
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  const auto healthy_transit = f.deliveries[0].at - f.deliveries[0].pkt.created;

  f.deliveries.clear();
  f.net.node(flow.source).set_extra_delay(out, 10_ms);
  f.net.inject(flow, 5, 1250);
  f.engine.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  const auto faulty_transit = f.deliveries[0].at - f.deliveries[0].pkt.created;
  EXPECT_EQ(faulty_transit - healthy_transit, 10_ms);
  // Delay fault must not inflate the queue (its paper signature).
  EXPECT_EQ(f.net.node(flow.source).queue_depth(out), 0u);
}

TEST(NetworkTest, TailDropWhenQueueOverflows) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 3, out));
  f.net.node(flow.source).set_queue_capacity(4);
  f.net.node(flow.source).set_max_pps(out, 10.0);  // drain very slowly
  for (int i = 0; i < 50; ++i) f.net.inject(flow, 3, 500);
  f.engine.run(10_s);
  EXPECT_GT(f.net.stats().dropped, 0u);
  EXPECT_EQ(f.net.stats().injected, 50u);
}

TEST(NetworkTest, ClearFaultsRestoresHealth) {
  Fixture f;
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 4, out));
  f.net.node(flow.source).set_drop_probability(out, 1.0);
  test_support::clear_faults(f.net.node(flow.source));
  f.net.inject(flow, 4, 500);
  f.engine.run();
  EXPECT_EQ(f.deliveries.size(), 1u);
}

TEST(NetworkTest, ObserverSeesIngressEgressDeliver) {
  struct Recorder : PacketObserver {
    int ingress = 0, enqueue = 0, egress = 0, deliver = 0, drop = 0;
    void on_ingress(SwitchContext&, Packet&) override { ++ingress; }
    void on_enqueue(SwitchContext&, Packet&, PortId, std::uint32_t) override {
      ++enqueue;
    }
    void on_egress(SwitchContext&, Packet&, PortId, sim::Time) override {
      ++egress;
    }
    void on_deliver(SwitchContext&, Packet&) override { ++deliver; }
    void on_drop(SwitchContext&, const Packet&, PortId) override { ++drop; }
  };
  Fixture f;
  Recorder rec;
  f.net.add_observer(rec);
  const FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.net.inject(flow, 8, 900);
  f.engine.run();
  EXPECT_EQ(rec.ingress, 5);
  EXPECT_EQ(rec.enqueue, 4);  // sink does not enqueue
  EXPECT_EQ(rec.egress, 4);
  EXPECT_EQ(rec.deliver, 1);
  EXPECT_EQ(rec.drop, 0);
}

TEST(NetworkTest, UtilizationAccountsBusyTime) {
  Fixture f;
  obs::MetricsRegistry registry;
  obs::scrape_network(f.net, registry,
                      {.per_port = false, .link_utilization = true,
                       .totals = false});
  const FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  for (int i = 0; i < 100; ++i) f.net.inject(flow, 2, 1250);
  f.engine.run();
  // One link.*.util gauge per direction of every link.
  const auto gauges = registry.read_gauges();
  ASSERT_EQ(gauges.size(), 2 * f.ft.topology.links().size());
  double max_util = 0.0;
  for (const auto& [name, util] : gauges) {
    EXPECT_TRUE(name.ends_with(".util")) << name;
    max_util = std::max(max_util, util);
  }
  EXPECT_GT(max_util, 0.0);
  EXPECT_LE(max_util, 1.0);
}

}  // namespace
}  // namespace mars::net
