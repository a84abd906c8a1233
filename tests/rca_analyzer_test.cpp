// Unit tests for the RootCauseAnalyzer on hand-constructed diagnosis
// sessions: cause assignment per signature, drop-vs-latency dispatch from
// the notification mix, the drop pass's deficit weighting, merge rules,
// and port-level attribution.

#include "rca/analyzer.hpp"

#include <gtest/gtest.h>

#include <span>

#include "net/fat_tree.hpp"
#include "net/routing.hpp"

namespace mars::rca {
namespace {

using namespace mars::sim::literals;

constexpr sim::Time kEpoch = 100 * sim::kMillisecond;

struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::RoutingTable routing{ft.topology};
  control::PathRegistry registry{ft.topology, routing, {}};
  RootCauseAnalyzer analyzer{registry, {}, &ft.topology};

  /// The registered path + id for a (src,dst) edge pair's first route.
  std::pair<std::uint32_t, std::span<const net::SwitchId>> first_path(
      net::SwitchId src, net::SwitchId dst) const {
    for (std::size_t i = 0; i < registry.path_count(); ++i) {
      const std::span<const net::SwitchId> path = registry.path_switches(i);
      if (path.front() == src && path.back() == dst) {
        return {registry.path_id(i), path};
      }
    }
    return {0, {}};
  }

  /// One telemetry record on a registered path.
  telemetry::RtRecord record(std::uint32_t path_id, net::FlowId flow,
                             sim::Time at, sim::Time latency,
                             std::uint32_t qdepth, std::uint32_t src_count,
                             std::uint32_t sink_count) const {
    telemetry::RtRecord rec;
    rec.flow = flow;
    rec.path_id = path_id;
    rec.sink_timestamp = at;
    rec.source_timestamp = at - latency;
    rec.latency = latency;
    rec.total_queue_depth = qdepth;
    rec.src_last_epoch_count = src_count;
    rec.sink_last_epoch_count = sink_count;
    rec.flow_epoch_packets = sink_count;
    rec.path_count_n = 1;
    rec.path_counts[0] = {path_id, sink_count};
    return rec;
  }
};

control::DiagnosisData session(dataplane::Notification::Kind kind,
                               sim::Time trigger_at) {
  control::DiagnosisData data;
  data.trigger.kind = kind;
  data.trigger.when = trigger_at;
  data.notifications.push_back(data.trigger);
  data.collected_at = trigger_at + 500_ms;
  return data;
}

TEST(AnalyzerTest, EmptySessionYieldsNoCulprits) {
  Fixture f;
  const auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  EXPECT_TRUE(f.analyzer.analyze(data).empty());
}

TEST(AnalyzerTest, ProcessRateShapeYieldsPortCulpritOnFaultyLink) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  const auto [path_id, path] = f.first_path(flow.source, flow.sink);
  ASSERT_FALSE(path.empty());
  const net::FlowId other{f.ft.edge[2], f.ft.edge[3]};
  const auto [other_id, other_path] = f.first_path(other.source, other.sink);
  ASSERT_FALSE(other_path.empty());

  auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  data.thresholds[flow] = 5_ms;
  data.thresholds[other] = 5_ms;
  // Baseline: healthy records for both flows.
  for (int e = 0; e < 25; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 2_ms, 1, 20, 20));
    data.records.push_back(
        f.record(other_id, other, e * kEpoch, 2_ms, 1, 20, 20));
  }
  // Problem: the flow's latency and queue blow up, inflow stays ~20/epoch.
  for (int e = 30; e < 35; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 300_ms, 60, 21, 20));
    data.records.push_back(
        f.record(other_id, other, e * kEpoch, 2_ms, 1, 20, 20));
  }
  const auto culprits = f.analyzer.analyze(data);
  ASSERT_FALSE(culprits.empty());
  // Top culprits: process-rate on the flow's path, never micro-burst.
  EXPECT_EQ(culprits.front().cause, CauseKind::kProcessRateDecrease);
  bool on_path = false;
  for (const auto sw : culprits.front().location) {
    on_path |= std::find(path.begin(), path.end(), sw) != path.end();
  }
  EXPECT_TRUE(on_path);
  for (const auto& c : culprits) {
    EXPECT_NE(c.cause, CauseKind::kMicroBurst);
  }
}

TEST(AnalyzerTest, SourceCountSpikeYieldsMicroBurstFlowCulprit) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
  const auto [path_id, path] = f.first_path(flow.source, flow.sink);
  ASSERT_FALSE(path.empty());

  auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  data.thresholds[flow] = 5_ms;
  for (int e = 0; e < 25; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 2_ms, 1, 20, 20));
  }
  // Problem: inflow 10x and latency up (the flow bursts).
  for (int e = 30; e < 35; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 120_ms, 40, 200, 190));
  }
  const auto culprits = f.analyzer.analyze(data);
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits.front().cause, CauseKind::kMicroBurst);
  EXPECT_EQ(culprits.front().level, CulpritLevel::kFlow);
  EXPECT_EQ(culprits.front().flow, flow);
}

TEST(AnalyzerTest, LatencyWithoutQueueOrSpikeIsDelay) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  const auto [path_id, path] = f.first_path(flow.source, flow.sink);
  auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  data.thresholds[flow] = 5_ms;
  for (int e = 0; e < 25; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 2_ms, 0, 20, 20));
  }
  for (int e = 30; e < 35; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 80_ms, 0, 20, 20));
  }
  const auto culprits = f.analyzer.analyze(data);
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits.front().cause, CauseKind::kDelay);
}

TEST(AnalyzerTest, DropOnlySessionRunsDeficitWeightedDropPass) {
  Fixture f;
  const net::FlowId lossy{f.ft.edge[0], f.ft.edge[1]};
  const net::FlowId healthy{f.ft.edge[2], f.ft.edge[3]};
  const auto [lossy_id, lossy_path] = f.first_path(lossy.source, lossy.sink);
  const auto [ok_id, ok_path] = f.first_path(healthy.source, healthy.sink);
  ASSERT_FALSE(lossy_path.empty());
  ASSERT_FALSE(ok_path.empty());

  auto data = session(dataplane::Notification::Kind::kDrop, 3 * sim::kSecond);
  data.thresholds[lossy] = 5_ms;
  data.thresholds[healthy] = 5_ms;
  for (int e = 25; e < 30; ++e) {  // baseline inside analysis window
    data.records.push_back(
        f.record(lossy_id, lossy, e * kEpoch, 2_ms, 0, 20, 20));
    data.records.push_back(
        f.record(ok_id, healthy, e * kEpoch, 2_ms, 0, 20, 20));
  }
  for (int e = 30; e < 35; ++e) {  // half the lossy flow's packets vanish
    data.records.push_back(
        f.record(lossy_id, lossy, e * kEpoch, 2_ms, 0, 20, 9));
    data.records.push_back(
        f.record(ok_id, healthy, e * kEpoch, 2_ms, 0, 20, 20));
  }
  const auto culprits = f.analyzer.analyze(data);
  ASSERT_FALSE(culprits.empty());
  EXPECT_EQ(culprits.front().cause, CauseKind::kDrop);
  bool on_lossy_path = false;
  for (const auto sw : culprits.front().location) {
    on_lossy_path |=
        std::find(lossy_path.begin(), lossy_path.end(), sw) !=
        lossy_path.end();
  }
  EXPECT_TRUE(on_lossy_path);
}

TEST(AnalyzerTest, PortLevelCulpritsNamePortsFromTopology) {
  Fixture f;
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[1]};
  const auto [path_id, path] = f.first_path(flow.source, flow.sink);
  auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  data.thresholds[flow] = 5_ms;
  for (int e = 0; e < 25; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 2_ms, 1, 20, 20));
  }
  for (int e = 30; e < 35; ++e) {
    data.records.push_back(
        f.record(path_id, flow, e * kEpoch, 300_ms, 60, 21, 20));
  }
  const auto culprits = f.analyzer.analyze(data);
  bool saw_port_level = false;
  for (const auto& c : culprits) {
    if (c.level != CulpritLevel::kPort) continue;
    saw_port_level = true;
    ASSERT_EQ(c.location.size(), 1u);
    EXPECT_NE(c.port, net::kHostPort);
    EXPECT_LT(c.port, f.ft.topology.port_count(c.location.front()));
  }
  EXPECT_TRUE(saw_port_level);
}

TEST(AnalyzerTest, MaxCulpritsBoundsTheList) {
  Fixture f;
  RcaConfig cfg;
  cfg.max_culprits = 3;
  RootCauseAnalyzer analyzer(f.registry, cfg, &f.ft.topology);
  auto data =
      session(dataplane::Notification::Kind::kHighLatency, 3 * sim::kSecond);
  // Anomalies on many flows at once.
  for (std::size_t e1 = 0; e1 < f.ft.edge.size(); ++e1) {
    const net::FlowId flow{f.ft.edge[e1],
                           f.ft.edge[(e1 + 3) % f.ft.edge.size()]};
    const auto [id, path] = f.first_path(flow.source, flow.sink);
    if (path.empty()) continue;
    data.thresholds[flow] = 5_ms;
    for (int e = 28; e < 35; ++e) {
      data.records.push_back(
          f.record(id, flow, e * kEpoch, 100_ms, 20, 20, 20));
    }
  }
  EXPECT_LE(analyzer.analyze(data).size(), 3u);
}

}  // namespace
}  // namespace mars::rca
