#include "control/channel.hpp"

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"

namespace mars::control {
namespace {

using namespace mars::sim::literals;

// A network with real traffic so ring tables carry genuine records.
struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  PathRegistry registry{ft.topology, net.routing(), {}};
  dataplane::MarsPipeline pipeline;
  std::vector<dataplane::Notification> delivered;

  Fixture()
      : pipeline(ft.topology.switch_count(), {},
                 [](const dataplane::Notification&) {}) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
  }

  void run_traffic(int packets = 300) {
    const net::FlowId flow{ft.edge[0], ft.edge[1]};
    for (int i = 0; i < packets; ++i) {
      engine.global().schedule_in(5_ms * i,
                                  [this, flow] { net.inject(flow, 3, 500); });
    }
    engine.run(packets * 5_ms + 1_s);
  }

  ControlChannel make_channel(ChannelConfig cfg) {
    ControlChannel channel(engine.global(), pipeline, cfg);
    channel.set_deliver([this](const dataplane::Notification& n) {
      delivered.push_back(n);
    });
    return channel;
  }

  static dataplane::Notification notification() {
    dataplane::Notification n;
    n.kind = dataplane::Notification::Kind::kHighLatency;
    return n;
  }
};

TEST(ControlChannelTest, PerfectChannelIsTransparent) {
  Fixture f;
  f.run_traffic();
  auto channel = f.make_channel({});
  ASSERT_TRUE(channel.config().perfect());

  for (int i = 0; i < 50; ++i) channel.offer(Fixture::notification());
  EXPECT_EQ(f.delivered.size(), 50u);

  const auto direct = f.pipeline.ring_snapshot(f.ft.edge[1]);
  const auto read = channel.read_ring(f.ft.edge[1]);
  ASSERT_TRUE(read.ok);
  ASSERT_FALSE(direct.empty());
  ASSERT_EQ(read.records.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(read.records[i].latency, direct[i].latency);
    EXPECT_EQ(read.records[i].flow, direct[i].flow);
  }
  // A perfect channel never schedules events: everything above ran with
  // the simulator idle.
  const auto events_before = f.engine.sim().events_executed();
  f.engine.run(f.engine.now() + 1_s);
  EXPECT_EQ(f.engine.sim().events_executed(), events_before);

  const ChannelStats& s = channel.stats();
  EXPECT_EQ(s.notifications_dropped, 0u);
  EXPECT_EQ(s.notifications_delayed, 0u);
  EXPECT_EQ(s.reads_failed, 0u);
  EXPECT_EQ(s.records_lost, 0u);
  EXPECT_EQ(s.records_corrupted, 0u);
}

TEST(ControlChannelTest, NotificationLossDropsTheConfiguredFraction) {
  Fixture f;
  ChannelConfig cfg;
  cfg.notification_loss = 0.3;
  cfg.seed = 42;
  auto channel = f.make_channel(cfg);
  for (int i = 0; i < 2000; ++i) channel.offer(Fixture::notification());
  const double dropped =
      static_cast<double>(channel.stats().notifications_dropped) / 2000.0;
  EXPECT_NEAR(dropped, 0.3, 0.05);
  EXPECT_EQ(f.delivered.size(), 2000u - channel.stats().notifications_dropped);
}

TEST(ControlChannelTest, DelayedNotificationsArriveLater) {
  Fixture f;
  ChannelConfig cfg;
  cfg.notification_delay_prob = 1.0;
  cfg.notification_delay_min = 10_ms;
  cfg.notification_delay_max = 20_ms;
  cfg.seed = 7;
  auto channel = f.make_channel(cfg);
  channel.offer(Fixture::notification());
  EXPECT_TRUE(f.delivered.empty());  // in flight, not dropped
  f.engine.run(1_s);
  EXPECT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(channel.stats().notifications_delayed, 1u);
}

TEST(ControlChannelTest, ReadFailureReturnsNotOk) {
  Fixture f;
  f.run_traffic();
  ChannelConfig cfg;
  cfg.read_failure = 1.0;
  auto channel = f.make_channel(cfg);
  const auto read = channel.read_ring(f.ft.edge[1]);
  EXPECT_FALSE(read.ok);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(channel.stats().reads_failed, 1u);
}

TEST(ControlChannelTest, RecordLossTruncatesTheSnapshot) {
  Fixture f;
  f.run_traffic();
  ChannelConfig cfg;
  cfg.record_loss = 0.5;
  cfg.seed = 9;
  auto channel = f.make_channel(cfg);
  const auto direct = f.pipeline.ring_snapshot(f.ft.edge[1]);
  ASSERT_GT(direct.size(), 10u);
  const auto read = channel.read_ring(f.ft.edge[1]);
  ASSERT_TRUE(read.ok);
  EXPECT_LT(read.records.size(), direct.size());
  EXPECT_EQ(read.records.size() + channel.stats().records_lost,
            direct.size());
}

TEST(ControlChannelTest, GenuineRecordsAreAlwaysPlausible) {
  Fixture f;
  f.run_traffic();
  const auto records = f.pipeline.ring_snapshot(f.ft.edge[1]);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    EXPECT_TRUE(plausible_record(rec, f.engine.now()));
  }
}

TEST(ControlChannelTest, SomeCorruptionIsCaughtByPlausibility) {
  Fixture f;
  f.run_traffic();
  ChannelConfig cfg;
  cfg.record_corruption = 1.0;
  cfg.seed = 11;
  auto channel = f.make_channel(cfg);
  const auto read = channel.read_ring(f.ft.edge[1]);
  ASSERT_TRUE(read.ok);
  ASSERT_GT(channel.stats().records_corrupted, 10u);
  std::size_t implausible = 0;
  for (const auto& rec : read.records) {
    if (!plausible_record(rec, f.engine.now())) ++implausible;
  }
  // 3 of the 5 corruption modes violate internal consistency; with every
  // record corrupted, a healthy share must be detectable (the silent modes
  // are the documented residual risk, so not all are).
  EXPECT_GT(implausible, read.records.size() / 4);
  EXPECT_LT(implausible, read.records.size());
}

TEST(ControlChannelTest, ScheduledDegradationRaisesAndRestoresTheDial) {
  Fixture f;
  ChannelConfig cfg;
  cfg.notification_loss = 0.1;
  auto channel = f.make_channel(cfg);
  channel.schedule_degradation(ControlChannel::Dial::kNotificationLoss, 0.9,
                               1_s, 2_s);
  EXPECT_EQ(channel.stats().scheduled_faults, 1u);
  f.engine.run(1_s + 1_ms);
  EXPECT_DOUBLE_EQ(channel.config().notification_loss, 0.9);
  f.engine.run(3_s + 1_ms);
  EXPECT_DOUBLE_EQ(channel.config().notification_loss, 0.1);
}

TEST(ControlChannelTest, DegradationWindowNeverLowersAStrongerDial) {
  Fixture f;
  ChannelConfig cfg;
  cfg.read_failure = 0.8;
  auto channel = f.make_channel(cfg);
  channel.schedule_degradation(ControlChannel::Dial::kReadFailure, 0.3, 1_s,
                               1_s);
  f.engine.run(1_s + 1_ms);
  EXPECT_DOUBLE_EQ(channel.config().read_failure, 0.8);  // max() kept it
  f.engine.run(3_s);
  EXPECT_DOUBLE_EQ(channel.config().read_failure, 0.8);
}

TEST(ControlChannelTest, SameSeedSameDamage) {
  Fixture f1, f2;
  f1.run_traffic();
  f2.run_traffic();
  ChannelConfig cfg;
  cfg.record_loss = 0.3;
  cfg.record_corruption = 0.2;
  cfg.seed = 1234;
  auto c1 = f1.make_channel(cfg);
  auto c2 = f2.make_channel(cfg);
  const auto r1 = c1.read_ring(f1.ft.edge[1]);
  const auto r2 = c2.read_ring(f2.ft.edge[1]);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].latency, r2.records[i].latency);
    EXPECT_EQ(r1.records[i].source_timestamp, r2.records[i].source_timestamp);
  }
}

}  // namespace
}  // namespace mars::control
