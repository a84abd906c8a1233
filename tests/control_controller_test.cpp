#include "control/controller.hpp"

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"

namespace mars::control {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  PathRegistry registry{ft.topology, net.routing(), {}};
  dataplane::MarsPipeline pipeline;
  Controller controller;
  std::vector<DiagnosisData> diagnoses;

  Fixture()
      : pipeline(ft.topology.switch_count(), make_pipeline_config(),
                 [this](const dataplane::Notification& n) {
                   controller.on_notification(n);
                 }),
        controller(net, pipeline, make_controller_config()) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
    controller.set_diagnosis_callback(
        [this](const DiagnosisData& d) { diagnoses.push_back(d); });
    controller.start();
  }

  static dataplane::PipelineConfig make_pipeline_config() {
    dataplane::PipelineConfig cfg;
    cfg.epoch_period = 50_ms;
    return cfg;
  }

  static ControllerConfig make_controller_config() {
    ControllerConfig cfg;
    cfg.poll_interval = 50_ms;
    cfg.reservoir.warmup = 8;
    cfg.reservoir.volume = 64;
    // Synchronous collection keeps these unit tests direct; the delayed
    // (posterior) collection has its own test below.
    cfg.collection_delay = 0;
    return cfg;
  }

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap, sim::Time start = 0) {
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(start + gap * i, [this, flow, hash] {
        net.inject(flow, hash, 500);
      });
    }
  }
};

TEST(ControllerTest, PollingWarmsReservoirAndInstallsThreshold) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 3, 200, 5_ms);  // 1s of traffic -> 20 epochs of telemetry
  f.engine.run(2_s);  // bounded: the controller polls forever by design
  // One reservoir, for the one flow; the controller installs a threshold
  // exactly when that reservoir is warmed up, so the installed threshold
  // replacing the 10s default shows it warmed up.
  EXPECT_EQ(f.controller.reservoir_count(), 1u);
  EXPECT_NE(f.pipeline.threshold(flow),
            f.pipeline.config().default_threshold);
  EXPECT_LT(f.pipeline.threshold(flow), 1_s);
  EXPECT_GT(f.pipeline.threshold(flow), 0);
  EXPECT_GT(f.controller.overheads().poll_bytes, 0u);
}

TEST(ControllerTest, DynamicThresholdCatchesInjectedCongestion) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  // Warm up with healthy traffic.
  f.traffic(flow, 3, 400, 5_ms);
  f.engine.run(2_s);
  // Warmed up: the flow's reservoir installed its threshold.
  ASSERT_EQ(f.controller.reservoir_count(), 1u);
  ASSERT_NE(f.pipeline.threshold(flow),
            f.pipeline.config().default_threshold);
  EXPECT_EQ(f.diagnoses.size(), 0u);  // healthy: no diagnosis sessions

  // Now throttle the egress port: queueing delay blows past the dynamic
  // threshold and the data plane notifies the controller.
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 3, out));
  f.net.node(flow.source).set_max_pps(out, 40.0);
  f.traffic(flow, 3, 200, 5_ms, 10_ms);
  f.engine.run(f.engine.now() + 8_s);
  EXPECT_GE(f.diagnoses.size(), 1u);
  EXPECT_FALSE(f.diagnoses[0].records.empty());
}

TEST(ControllerTest, DiagnosisCollectsOnlyEdgeSwitchData) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 3, 100, 5_ms);
  f.engine.run(1_s);  // bounded: polling reschedules forever
  // Force a diagnosis.
  dataplane::Notification n;
  n.kind = dataplane::Notification::Kind::kHighLatency;
  n.flow = flow;
  n.when = f.engine.now();
  f.controller.on_notification(n);
  ASSERT_EQ(f.diagnoses.size(), 1u);
  // Every record came from an edge switch's ring table (sinks are edges).
  for (const auto& rec : f.diagnoses[0].records) {
    EXPECT_EQ(f.ft.topology.layer(rec.flow.sink), net::Layer::kEdge);
  }
  EXPECT_GT(f.controller.overheads().diagnosis_bytes, 0u);
}

TEST(ControllerTest, ResponseWindowRateLimitsDiagnoses) {
  Fixture f;
  dataplane::Notification n;
  n.kind = dataplane::Notification::Kind::kHighLatency;
  n.when = f.engine.now();
  for (int i = 0; i < 10; ++i) f.controller.on_notification(n);
  EXPECT_EQ(f.controller.overheads().diagnoses, 1u);
  EXPECT_EQ(f.controller.overheads().notifications_suppressed, 9u);
}

TEST(ControllerTest, DelayedCollectionFoldsLaterNotifications) {
  Fixture f;
  // Re-wire a controller with posterior collection.
  ControllerConfig cfg = Fixture::make_controller_config();
  cfg.collection_delay = 200_ms;
  Controller delayed(f.net, f.pipeline, cfg);
  std::vector<DiagnosisData> sessions;
  delayed.set_diagnosis_callback(
      [&](const DiagnosisData& d) { sessions.push_back(d); });

  dataplane::Notification first;
  first.kind = dataplane::Notification::Kind::kDrop;
  first.when = f.engine.now();
  delayed.on_notification(first);
  // A different-kind notification arrives while collection is pending.
  f.engine.global().schedule_in(50_ms, [&] {
    dataplane::Notification second;
    second.kind = dataplane::Notification::Kind::kHighLatency;
    second.when = f.engine.now();
    delayed.on_notification(second);
  });
  f.engine.run(1_s);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].notifications.size(), 2u);
  EXPECT_TRUE(sessions[0].saw(dataplane::Notification::Kind::kDrop));
  EXPECT_TRUE(sessions[0].saw(dataplane::Notification::Kind::kHighLatency));
}

TEST(ControllerTest, ThresholdSnapshotTravelsWithDiagnosis) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 3, 300, 5_ms);
  f.engine.run(2_s);
  dataplane::Notification n;
  n.kind = dataplane::Notification::Kind::kHighLatency;
  n.flow = flow;
  n.when = f.engine.now();
  f.controller.on_notification(n);
  ASSERT_EQ(f.diagnoses.size(), 1u);
  EXPECT_TRUE(f.diagnoses[0].thresholds.count(flow));
  // is_abnormal honours the snapshot.
  telemetry::RtRecord rec;
  rec.flow = flow;
  rec.latency = f.diagnoses[0].thresholds.at(flow) + 1;
  EXPECT_TRUE(f.diagnoses[0].is_abnormal(rec));
  rec.latency = f.diagnoses[0].thresholds.at(flow) - 1;
  EXPECT_FALSE(f.diagnoses[0].is_abnormal(rec));
}

}  // namespace
}  // namespace mars::control
