// The int-md export backend as `--backend int-md` runs it: inside the MARS
// pipeline, stacking one entry per hop on each telemetry packet it samples
// (the pipeline marks one packet per flow per epoch; every packet below
// starts a new epoch, so every packet is marked).

#include "telemetry/int_md_backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dataplane/mars_pipeline.hpp"
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
  dataplane::MarsPipeline pipeline;

  explicit Fixture(IntMdConfig cfg = {})
      : pipeline(ft.topology.switch_count(), config_for(cfg),
                 [](const dataplane::Notification&) {}) {
    net.add_observer(pipeline);
  }

  static dataplane::PipelineConfig config_for(IntMdConfig cfg) {
    dataplane::PipelineConfig config;
    config.backend.kind = BackendKind::kIntMd;
    config.backend.int_md = cfg;
    return config;
  }

  /// `count` packets one epoch apart, so each is a telemetry packet.
  void traffic(net::FlowId flow, std::uint32_t hash, int count) {
    const sim::Time gap = pipeline.config().epoch_period;
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(gap * i, [this, flow, hash] {
        net.inject(flow, hash, 600);
      });
    }
  }

  /// Records stored at `sink` that carried a hop stack.
  [[nodiscard]] std::vector<IntMdBackend::StoredRecord> stacks(
      net::SwitchId sink) const {
    const auto& backend =
        dynamic_cast<const IntMdBackend&>(pipeline.backend());
    std::vector<IntMdBackend::StoredRecord> out;
    for (auto& stored : backend.records_with_hops(sink)) {
      if (!stored.hops.empty()) out.push_back(std::move(stored));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t inband_bytes() const {
    return pipeline.backend().counters().inband_bytes;
  }
};

TEST(IntMdTest, RecordsEveryHopInOrder) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // 5-switch path
  f.traffic(flow, 77, 3);
  f.engine.run();
  const auto records = f.stacks(flow.sink);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    ASSERT_EQ(rec.hops.size(), 5u);
    EXPECT_EQ(rec.hops.front().sw, flow.source);
    EXPECT_EQ(rec.hops.front().in_port, net::kHostPort);
    EXPECT_EQ(rec.hops.back().sw, flow.sink);
    EXPECT_EQ(rec.hops.back().out_port, net::kHostPort);
    for (std::size_t h = 0; h + 1 < rec.hops.size(); ++h) {
      EXPECT_GT(rec.hops[h].hop_latency, 0);
      // Each hop leaves on the port that faces the next hop's switch.
      EXPECT_EQ(f.ft.topology.peer(rec.hops[h].sw, rec.hops[h].out_port)
                    .neighbor,
                rec.hops[h + 1].sw);
    }
  }
}

TEST(IntMdTest, HeaderBytesGrowWithPathLength) {
  Fixture intra;
  const net::FlowId short_flow{intra.ft.edge[0], intra.ft.edge[1]};  // 3 sw
  intra.traffic(short_flow, 5, 10);
  intra.engine.run();
  const auto short_bytes = intra.inband_bytes();

  Fixture inter;
  const net::FlowId long_flow{inter.ft.edge[0], inter.ft.edge[4]};  // 5 sw
  inter.traffic(long_flow, 5, 10);
  inter.engine.run();
  // Same packet count, longer paths: strictly more in-band bytes — the
  // Fig. 3 motivation for fixed-width PathIDs.
  EXPECT_GT(inter.inband_bytes(), short_bytes);
  // Exact accounting for the short path: per packet, 2 recorded links,
  // each carrying the 1-byte PathID plus shim + a stack of 1 then 2
  // entries.
  EXPECT_EQ(short_bytes, 10u * ((1 + 12 + 8) + (1 + 12 + 16)));
}

TEST(IntMdTest, SamplingReducesCoverageAndBytes) {
  IntMdConfig cfg;
  cfg.sample_every = 5;
  Fixture sampled(cfg);
  Fixture every;
  for (Fixture* f : {&sampled, &every}) {
    f->traffic({f->ft.edge[0], f->ft.edge[1]}, 5, 50);
    f->engine.run();
  }
  EXPECT_EQ(sampled.stacks(sampled.ft.edge[1]).size(), 10u);
  EXPECT_EQ(every.stacks(every.ft.edge[1]).size(), 50u);
  // Unsampled telemetry packets still carry the PathID byte on both links.
  EXPECT_EQ(sampled.inband_bytes(),
            10u * ((1 + 12 + 8) + (1 + 12 + 16)) + 40u * (1 + 1));
}

TEST(IntMdTest, MaxHopsCapsTheStack) {
  IntMdConfig cfg;
  cfg.max_hops = 2;
  Fixture f(cfg);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  f.traffic(flow, 5, 2);
  f.engine.run();
  const auto records = f.stacks(flow.sink);
  ASSERT_EQ(records.size(), 2u);
  for (const auto& rec : records) {
    // 2 transit entries + the sink's own entry appended at delivery.
    ASSERT_EQ(rec.hops.size(), 3u);
    EXPECT_EQ(rec.hops[0].sw, flow.source);
    EXPECT_EQ(rec.hops[2].sw, flow.sink);
  }
}

TEST(IntMdTest, DropCleansUpInFlightState) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  net::PortId out = 0;
  ASSERT_TRUE(f.net.routing().select_port(flow.source, flow.sink, 5, out));
  f.net.node(flow.source).set_drop_probability(out, 1.0);
  f.traffic(flow, 5, 10);
  f.engine.run();
  EXPECT_TRUE(f.stacks(flow.sink).empty());
  EXPECT_EQ(f.net.stats().dropped, 10u);
}

}  // namespace
}  // namespace mars::telemetry
