#include "dataplane/mars_pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "control/path_registry.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "path_recorder.hpp"
#include "switch_faults.hpp"

namespace mars::dataplane {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  control::PathRegistry registry{ft.topology, net.routing(), {}};
  std::vector<Notification> notifications;
  MarsPipeline pipeline;
  test_support::PathRecorder paths;
  std::vector<net::Packet> delivered;

  explicit Fixture(PipelineConfig cfg = {})
      : pipeline(ft.topology.switch_count(), cfg,
                 [this](const Notification& n) {
                   notifications.push_back(n);
                 }) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
    net.add_observer(paths);
    net.set_delivery_callback([this](const net::Packet& p, sim::Time) {
      delivered.push_back(p);
    });
  }

  /// Inject `count` packets of `flow` spaced `gap` apart, starting at the
  /// current simulation time.
  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap) {
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(gap * i, [this, flow, hash] {
        net.inject(flow, hash, 500);
      });
    }
  }
};

TEST(PipelineTest, MarksOneTelemetryPacketPerFlowPerEpoch) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 7, 50, 10_ms);  // 50 packets over 500ms = 5 epochs
  f.engine.run();
  ASSERT_EQ(f.delivered.size(), 50u);
  EXPECT_EQ(f.pipeline.overheads().telemetry_packets_marked, 5u);
  // INT headers are stripped at the sink: no delivered packet carries one.
  for (const auto& p : f.delivered) EXPECT_FALSE(p.telemetry.has_value());
}

TEST(PipelineTest, PathIdMatchesRegistry) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 99, 10, 1_ms);
  f.engine.run();
  ASSERT_FALSE(f.delivered.empty());
  for (const auto& p : f.delivered) {
    const std::span<const net::SwitchId> path = f.registry.lookup(p.path_id);
    ASSERT_FALSE(path.empty()) << "unknown PathID " << p.path_id;
    EXPECT_EQ(net::SwitchPath(path.begin(), path.end()), f.paths.path_of(p))
        << "PathID decompressed to the wrong switch sequence";
  }
}

TEST(PipelineTest, DistinctRoutesYieldDistinctPathIds) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  // Many flow hashes explore multiple ECMP paths.
  for (std::uint32_t h = 0; h < 64; ++h) {
    f.engine.global().schedule_in(h * 100'000, [&f, flow, h] {
      f.net.inject(flow, h * 2654435761u, 500);
    });
  }
  f.engine.run();
  std::set<std::uint32_t> ids;
  std::set<std::vector<net::SwitchId>> paths;
  for (const auto& p : f.delivered) {
    ids.insert(p.path_id);
    paths.insert(f.paths.path_of(p));
  }
  EXPECT_GT(paths.size(), 1u);
  EXPECT_EQ(ids.size(), paths.size());  // bijection on this sample
}

TEST(PipelineTest, RingTableRecordsTelemetryAtSink) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 30, 10_ms);
  f.engine.run();
  const auto records = f.pipeline.ring_snapshot(flow.sink);
  ASSERT_GE(records.size(), 2u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.flow, flow);
    EXPECT_GT(rec.latency, 0);
    EXPECT_EQ(rec.latency, rec.sink_timestamp - rec.source_timestamp);
    EXPECT_FALSE(f.registry.lookup(rec.path_id).empty());
  }
  // The source switch's ring table stays empty (it is not this flow's sink).
  EXPECT_TRUE(f.pipeline.ring_snapshot(flow.source).empty());
}

TEST(PipelineTest, EgressTableCountsAllPackets) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 20, 1_ms);
  f.engine.run();
  const auto& et = f.pipeline.egress_table(flow.sink);
  EXPECT_EQ(et.flow_current_packets(flow.source, f.engine.now()), 20u);
}

TEST(PipelineTest, HighLatencyTriggersNotification) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.pipeline.set_threshold(flow, 1_ms);  // everything above 1ms flags
  // Slow the egress port so queueing pushes latency over the threshold.
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  // Spread packets over several epochs: the persistence filter requires
  // consecutive anomalous telemetry packets before notifying.
  f.traffic(flow, 5, 150, 5_ms);
  f.engine.run();
  ASSERT_GE(f.notifications.size(), 1u);
  EXPECT_EQ(f.notifications[0].kind, Notification::Kind::kHighLatency);
  EXPECT_EQ(f.notifications[0].flow, flow);
  EXPECT_GT(f.notifications[0].latency, 1_ms);
  // The notification window bounds the rate well below the number of
  // over-threshold packets.
  EXPECT_LT(f.notifications.size(), 30u);
}

TEST(PipelineTest, NotificationWindowIsKeptPerReporterAtTheSink) {
  // Two flows into one sink, each slowed at its own source, so each is
  // flagged by a different hop. The sink issues both flows' latency
  // notifications and its own drop notifications (the slowed flows fall
  // behind their epoch counts); its window must throttle each reporter on
  // its own, not let one reporter's notification silence another's.
  Fixture f;
  const net::SwitchId sink = f.ft.edge[1];
  const net::FlowId near{f.ft.edge[0], sink};
  const net::FlowId far{f.ft.edge[2], sink};
  for (const net::FlowId& flow : {near, far}) {
    f.pipeline.set_threshold(flow, 1_ms);
    net::PortId out = 0;
    ASSERT_TRUE(f.net.routing().select_port(flow.source, sink, 5, out));
    f.net.node(flow.source).set_max_pps(out, 50.0);
    f.traffic(flow, 5, 150, 5_ms);
  }
  f.engine.run();

  const sim::Time window = f.pipeline.config().notification_window;
  std::vector<sim::Time> from_near;
  std::vector<sim::Time> from_far;
  std::vector<sim::Time> from_sink;
  for (const Notification& n : f.notifications) {
    EXPECT_EQ(n.origin, sink);
    if (n.kind == Notification::Kind::kDrop) {
      EXPECT_EQ(n.reporter, sink);
      from_sink.push_back(n.when);
      continue;
    }
    ASSERT_TRUE(n.reporter == near.source || n.reporter == far.source);
    (n.reporter == near.source ? from_near : from_far).push_back(n.when);
  }
  ASSERT_FALSE(from_near.empty());
  ASSERT_FALSE(from_far.empty());
  // One notification per reporter per window...
  for (const auto* times : {&from_near, &from_far, &from_sink}) {
    for (std::size_t i = 1; i < times->size(); ++i) {
      EXPECT_GE((*times)[i] - (*times)[i - 1], window);
    }
  }
  // ...but the two reporters' notifications do share a window.
  EXPECT_LT(std::abs(from_near.front() - from_far.front()), window);
}

TEST(PipelineTest, SingleEpochSpikeIsFilteredByPersistence) {
  // One anomalous telemetry packet (a single-epoch ambient spike) must
  // not notify; the streak needs latency_persistence consecutive hits.
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.pipeline.set_threshold(flow, 1_ms);
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);
  f.traffic(flow, 5, 10, 1_ms);  // all within one epoch
  f.engine.run();
  EXPECT_TRUE(f.notifications.empty());
}

TEST(PipelineTest, DropDetectedByCountMismatch) {
  PipelineConfig cfg;
  cfg.drop_count_threshold = 2;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  // Lose half the packets; telemetry packets that survive reveal the
  // mismatch between source and sink epoch counts.
  f.net.node(flow.source).set_drop_probability(out, 0.5);
  f.traffic(flow, 5, 200, 5_ms);  // 1s of traffic across 10 epochs
  f.engine.run();
  bool saw_drop = false;
  for (const auto& n : f.notifications) {
    saw_drop |= n.kind == Notification::Kind::kDrop;
  }
  EXPECT_TRUE(saw_drop);
}

TEST(PipelineTest, DropDetectedByEpochGap) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));

  // Healthy epoch 0 traffic.
  f.traffic(flow, 5, 10, 5_ms);
  f.engine.run(99_ms);
  // Total loss for two full epochs, then recovery.
  f.net.node(flow.source).set_drop_probability(out, 1.0);
  f.traffic(flow, 5, 40, 5_ms);
  f.engine.run(299_ms);
  test_support::clear_faults(f.net.node(flow.source));
  f.traffic(flow, 5, 10, 5_ms);
  f.engine.run();

  bool saw_gap = false;
  for (const auto& n : f.notifications) {
    if (n.kind == Notification::Kind::kDrop && n.epoch_gap >= 1) {
      saw_gap = true;
    }
  }
  EXPECT_TRUE(saw_gap);
}

TEST(PipelineTest, TelemetryBandwidthAccountingGrows) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 10, 1_ms);
  f.engine.run();
  const auto& oh = f.pipeline.overheads();
  // Every packet carries 1 PathID byte per link; telemetry packets add 11B.
  EXPECT_GT(oh.telemetry_bytes, 0u);
  EXPECT_GE(oh.telemetry_bytes, 10u * 4u);  // >= 1B x 4 links x 10 packets
}

TEST(PipelineTest, NewFlowUsesDefaultThreshold) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[2], f.ft.edge[3]};
  EXPECT_EQ(f.pipeline.threshold(flow), f.pipeline.config().default_threshold);
  f.pipeline.set_threshold(flow, 3_ms);
  EXPECT_EQ(f.pipeline.threshold(flow), 3_ms);
}

}  // namespace
}  // namespace mars::dataplane
