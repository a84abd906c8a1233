#include "telemetry/int_md.hpp"

#include <gtest/gtest.h>

#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"

namespace mars::telemetry {
namespace {

using namespace mars::sim::literals;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  IntMdPipeline pipeline;

  explicit Fixture(IntMdConfig cfg = {}) : pipeline(cfg) {
    net.add_observer(pipeline);
  }

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap) {
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(gap * i, [this, flow, hash] {
        net.inject(flow, hash, 600);
      });
    }
  }
};

TEST(IntMdTest, RecordsEveryHopInOrder) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.traffic(flow, 77, 3, 1_ms);
  f.engine.run();
  ASSERT_EQ(f.pipeline.records().size(), 3u);
  for (const auto& rec : f.pipeline.records()) {
    ASSERT_EQ(rec.hops.size(), 5u);
    EXPECT_EQ(rec.hops.front().sw, flow.source);
    EXPECT_EQ(rec.hops.back().sw, flow.sink);
    EXPECT_EQ(rec.hops.back().out_port, net::kHostPort);
    for (std::size_t h = 0; h + 1 < rec.hops.size(); ++h) {
      EXPECT_GT(rec.hops[h].hop_latency, 0);
    }
  }
}

TEST(IntMdTest, HeaderBytesGrowWithPathLength) {
  Fixture intra;
  const net::FlowId short_flow{intra.ft.edge[0], intra.ft.edge[1]};  // 3 sw
  intra.traffic(short_flow, 5, 10, 1_ms);
  intra.engine.run();
  const auto short_bytes = intra.pipeline.telemetry_bytes();

  Fixture inter;
  const net::FlowId long_flow{inter.ft.edge[0], inter.ft.edge[4]};  // 5 sw
  inter.traffic(long_flow, 5, 10, 1_ms);
  inter.engine.run();
  // Same packet count, longer paths: strictly more in-band bytes — the
  // Fig. 3 motivation for fixed-width PathIDs.
  EXPECT_GT(inter.pipeline.telemetry_bytes(), short_bytes);
  // Exact accounting for the short path: per packet, 2 recorded links
  // carrying shim + stack of 1 then 2 entries.
  EXPECT_EQ(short_bytes, 10u * (12 + 8 + 12 + 16));
}

TEST(IntMdTest, SamplingReducesCoverageAndBytes) {
  IntMdConfig cfg;
  cfg.sample_every = 5;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 50, 1_ms);
  f.engine.run();
  EXPECT_EQ(f.pipeline.records().size(), 10u);
}

TEST(IntMdTest, MaxHopsCapsTheStack) {
  IntMdConfig cfg;
  cfg.max_hops = 2;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 2, 1_ms);
  f.engine.run();
  ASSERT_FALSE(f.pipeline.records().empty());
  // 2 transit entries + the sink's own entry appended at delivery.
  EXPECT_EQ(f.pipeline.records().front().hops.size(), 3u);
}

TEST(IntMdTest, MeanHopLatencyLocalizesSlowSwitch) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_max_pps(out, 100.0);
  f.traffic(flow, 5, 50, 2_ms);
  f.engine.run();
  const auto means = f.pipeline.mean_hop_latency(
      0, std::numeric_limits<sim::Time>::max());
  ASSERT_TRUE(means.count(flow.source));
  // The throttled switch's hop latency dwarfs everything else.
  for (const auto& [sw, mean] : means) {
    if (sw != flow.source) EXPECT_GT(means.at(flow.source), mean);
  }
}

TEST(IntMdTest, RetentionCapBoundsRecordGrowth) {
  // Regression: records() used to grow without bound when nothing ever
  // collected — a long-lived pipeline leaked one hop stack per telemetry
  // packet. At the cap the oldest half is evicted, newest evidence wins.
  IntMdConfig cfg;
  cfg.max_records = 8;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 30, 1_ms);
  f.engine.run();
  EXPECT_LE(f.pipeline.records().size(), 8u);
  EXPECT_GT(f.pipeline.dropped_records(), 0u);
  // The survivors are the newest half, still in delivery order.
  ASSERT_GE(f.pipeline.records().size(), 2u);
  EXPECT_LT(f.pipeline.records().front().sink_time,
            f.pipeline.records().back().sink_time);
}

TEST(IntMdTest, CollectDrainsAndResetsRetention) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  f.traffic(flow, 5, 10, 1_ms);
  f.engine.run();
  ASSERT_EQ(f.pipeline.records().size(), 10u);
  const auto collected = f.pipeline.collect();
  EXPECT_EQ(collected.size(), 10u);
  EXPECT_TRUE(f.pipeline.records().empty())
      << "collect() must hand off ownership, not copy";
  // Post-collect traffic accumulates fresh records from zero.
  f.traffic(flow, 5, 3, 1_ms);
  f.engine.run();
  EXPECT_EQ(f.pipeline.records().size(), 3u);
}

TEST(IntMdTest, DropCleansUpInFlightState) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_drop_probability(out, 1.0);
  f.traffic(flow, 5, 10, 1_ms);
  f.engine.run();
  EXPECT_TRUE(f.pipeline.records().empty());
}

}  // namespace
}  // namespace mars::telemetry
