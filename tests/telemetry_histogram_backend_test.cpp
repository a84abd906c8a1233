// Histogram telemetry backend: event-detector hysteresis, digest
// quantization, epoch-rollover sealing/resets, and the in-band accounting
// that makes it the cheap end of the bandwidth frontier.

#include "telemetry/histogram_backend.hpp"

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"

namespace mars::telemetry {
namespace {

using namespace mars::sim::literals;

TEST(EventDetectorTest, FiresOnlyOnRisingEdge) {
  EventDetector d(0.10, 0.02);
  EXPECT_FALSE(d.update(0.05));  // below enter: armed, silent
  EXPECT_TRUE(d.update(0.10));   // crosses enter (>=): fires once
  EXPECT_TRUE(d.triggered());
  EXPECT_FALSE(d.update(0.50));  // still high: no re-fire
  EXPECT_FALSE(d.update(0.05));  // between exit and enter: still latched
  EXPECT_TRUE(d.triggered());
}

TEST(EventDetectorTest, ReArmsAtExitThreshold) {
  EventDetector d(0.10, 0.02);
  EXPECT_TRUE(d.update(0.20));
  EXPECT_FALSE(d.update(0.02));  // falls to exit (<=): re-arms, no event
  EXPECT_FALSE(d.triggered());
  EXPECT_TRUE(d.update(0.15));   // second rising edge fires again
}

TEST(EventDetectorTest, HysteresisBandSuppressesFlapping) {
  EventDetector d(0.10, 0.02);
  EXPECT_TRUE(d.update(0.12));
  // A signal oscillating inside (exit, enter) produces no further events
  // in either direction — the point of the dead band.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(d.update(i % 2 == 0 ? 0.03 : 0.09));
    EXPECT_TRUE(d.triggered());
  }
}

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  control::PathRegistry registry{ft.topology, net.routing(), {}};
  dataplane::MarsPipeline pipeline;

  explicit Fixture(dataplane::PipelineConfig cfg = make_config())
      : pipeline(ft.topology.switch_count(), cfg,
                 [](const dataplane::Notification&) {}) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
  }

  static dataplane::PipelineConfig make_config() {
    dataplane::PipelineConfig cfg;
    cfg.backend.kind = BackendKind::kHistogram;
    return cfg;
  }

  [[nodiscard]] const HistogramBackend& backend() const {
    return dynamic_cast<const HistogramBackend&>(pipeline.backend());
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

TEST(HistogramBackendTest, DigestsQuantizeLatencyAndDropQueueDepth) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 7, 40, 10_ms);
  f.engine.run();
  const auto records = f.pipeline.ring_snapshot(flow.sink);
  ASSERT_FALSE(records.empty());
  const auto& backend = f.backend();
  for (const auto& rec : records) {
    EXPECT_EQ(rec.flow, flow);
    // Latency is reported at its log-linear bucket floor (microsecond
    // resolution), and the timestamps are back-dated to keep the
    // controller's latency == sink - source plausibility check happy.
    EXPECT_EQ(rec.latency, backend.quantize_latency(rec.latency));
    EXPECT_EQ(rec.latency, rec.sink_timestamp - rec.source_timestamp);
    // The accuracy cost this backend trades for bandwidth: the digests
    // do not carry queue depths.
    EXPECT_EQ(rec.total_queue_depth, 0u);
  }
}

TEST(HistogramBackendTest, RolloverSealsDigestsAndResetsHistograms) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  // Epoch 0 (period 100ms): 30 packets. Then silence, then 5 packets in
  // epoch 2 whose arrival drives observe_epoch -> rollover at each hop.
  f.traffic(flow, 7, 30, 3_ms);
  f.traffic(flow, 7, 5, 3_ms, 230_ms);
  f.engine.run();
  const auto& backend = f.backend();
  EXPECT_GT(backend.counters().epochs, 0u);
  // Epoch-0 digests were sealed at rollover and are still drainable.
  EXPECT_GE(f.pipeline.backend().store_size(flow.sink), 1u);
  const auto records = f.pipeline.ring_snapshot(flow.sink);
  ASSERT_GE(records.size(), 2u);  // sealed epoch-0 + live epoch-2 digest
}

TEST(HistogramBackendTest, DigestFoldingBoundsStoreGrowth) {
  // Many flows, many epochs: the sink store holds one digest per (flow,
  // epoch) at most — bounded by the digest ring, never per-packet.
  Fixture f;
  const net::FlowId a{f.ft.edge[0], f.ft.edge[1]};
  const net::FlowId b{f.ft.edge[2], f.ft.edge[1]};
  f.traffic(a, 7, 200, 2_ms);
  f.traffic(b, 9, 200, 2_ms);
  f.engine.run();  // 400ms of traffic = 4+ epochs, 400 delivered packets
  const auto records = f.pipeline.ring_snapshot(a.sink);
  EXPECT_LE(records.size(), 2u * 6u)
      << "at most flows x epochs digests, never per-packet records";
  // Drain = sealed digests (counted as exports) + live current-epoch
  // digests, matching the store occupancy exactly.
  EXPECT_EQ(records.size(), f.pipeline.backend().store_size(a.sink));
  EXPECT_LE(f.backend().counters().records, records.size());
}

TEST(HistogramBackendTest, TriggerFiresUnderInducedTailLatency) {
  dataplane::PipelineConfig cfg = Fixture::make_config();
  // Make the trigger reachable in a short run: a 1ms tail bound with a
  // low enter fraction.
  cfg.backend.histogram.tail_latency = 1_ms;
  cfg.backend.histogram.trigger_enter = 0.5;
  cfg.backend.histogram.trigger_exit = 0.1;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 7, out));
  f.net.node(flow.source).set_max_pps(out, 50.0);  // force queueing delay
  f.traffic(flow, 7, 120, 5_ms);
  f.engine.run();
  EXPECT_GE(f.backend().counters().triggers, 1u)
      << "sustained tail latency above the bound must fire the detector";
  EXPECT_GE(f.pipeline.backend().store_size(flow.sink), 1u)
      << "the trigger seals live digests for immediate drainability";
}

}  // namespace
}  // namespace mars::telemetry
