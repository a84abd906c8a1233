// TelemetryBackend contract tests: name registry, the postcard/int-md
// differential (same seed => identical drained records), histogram wire
// accounting, and the full Table-1 fault suite running through the common
// interface under every backend.

#include "telemetry/backend.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "control/path_registry.hpp"
#include "dataplane/mars_pipeline.hpp"
#include "mars/scenario.hpp"
#include "net/engine.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "telemetry/int_md_backend.hpp"
#include "telemetry/postcard_backend.hpp"

namespace mars::telemetry {
namespace {

using namespace mars::sim::literals;

TEST(BackendNamesTest, RoundTripAllKinds) {
  for (const auto kind :
       {BackendKind::kPostcard, BackendKind::kIntMd, BackendKind::kHistogram}) {
    const auto back = backend_from_name(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_EQ(known_backend_names().size(), 3u);
}

TEST(BackendNamesTest, UnknownNameIsRejected) {
  EXPECT_FALSE(backend_from_name("postcards").has_value());
  EXPECT_FALSE(backend_from_name("").has_value());
}

TEST(BackendNamesTest, SuggestsCloseMisspellings) {
  EXPECT_EQ(suggest_backend("histgram"), "histogram");
  EXPECT_EQ(suggest_backend("postcrd"), "postcard");
  EXPECT_EQ(suggest_backend("int_md"), "int-md");
  // Nothing within edit range: no suggestion beats a wrong one.
  EXPECT_EQ(suggest_backend("zzzzzzzzzz"), "");
}

/// A fat-tree with a MarsPipeline wired for one backend kind; traffic
/// schedules are identical across fixtures, which is what makes the
/// differential meaningful.
struct Fixture {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::Engine engine{ft.topology};
  net::Network& net = engine.network();
  control::PathRegistry registry{ft.topology, net.routing(), {}};
  dataplane::MarsPipeline pipeline;

  explicit Fixture(BackendKind kind)
      : pipeline(ft.topology.switch_count(), config_for(kind),
                 [](const dataplane::Notification&) {}) {
    pipeline.set_control_mat(registry.mat());
    net.add_observer(pipeline);
  }

  static dataplane::PipelineConfig config_for(BackendKind kind) {
    dataplane::PipelineConfig cfg;
    cfg.backend.kind = kind;
    return cfg;
  }

  void traffic(net::FlowId flow, std::uint32_t hash, int count,
               sim::Time gap) {
    for (int i = 0; i < count; ++i) {
      engine.global().schedule_in(gap * i, [this, flow, hash] {
        net.inject(flow, hash, 500);
      });
    }
  }
};

void expect_same_records(const std::vector<RtRecord>& a,
                         const std::vector<RtRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow) << "record " << i;
    EXPECT_EQ(a[i].path_id, b[i].path_id) << "record " << i;
    EXPECT_EQ(a[i].epoch_id, b[i].epoch_id) << "record " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "record " << i;
    EXPECT_EQ(a[i].source_timestamp, b[i].source_timestamp) << "record " << i;
    EXPECT_EQ(a[i].sink_timestamp, b[i].sink_timestamp) << "record " << i;
    EXPECT_EQ(a[i].total_queue_depth, b[i].total_queue_depth)
        << "record " << i;
    EXPECT_EQ(a[i].epoch_gap, b[i].epoch_gap) << "record " << i;
  }
}

TEST(BackendDifferentialTest, PostcardAndIntMdDrainIdenticalRecords) {
  // Same topology, same traffic, same seed-free schedule: on a perfect
  // channel the postcard ring and the INT-MD sink store must expose the
  // SAME record stream — the backends differ in wire format, not in what
  // the telemetry packets measured.
  Fixture postcard(BackendKind::kPostcard);
  Fixture intmd(BackendKind::kIntMd);
  for (Fixture* f : {&postcard, &intmd}) {
    const net::FlowId intra{f->ft.edge[0], f->ft.edge[1]};
    const net::FlowId inter{f->ft.edge[0], f->ft.edge[4]};
    f->traffic(intra, 7, 40, 10_ms);
    f->traffic(inter, 99, 40, 10_ms);
    f->engine.run();
  }
  EXPECT_EQ(postcard.engine.now(), intmd.engine.now())
      << "backend choice must not move the event schedule";
  for (const net::SwitchId sink :
       {postcard.ft.edge[1], postcard.ft.edge[4]}) {
    const auto from_ring = postcard.pipeline.ring_snapshot(sink);
    const auto from_stack = intmd.pipeline.ring_snapshot(sink);
    ASSERT_FALSE(from_ring.empty());
    expect_same_records(from_ring, from_stack);
  }
}

TEST(BackendDifferentialTest, IntMdHopStacksMatchTheRecordedPath) {
  Fixture f(BackendKind::kIntMd);
  const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};  // inter-pod, 5 hops
  f.traffic(flow, 99, 30, 10_ms);
  f.engine.run();
  const auto* backend =
      dynamic_cast<const IntMdBackend*>(&f.pipeline.backend());
  ASSERT_NE(backend, nullptr);
  const auto stored = backend->records_with_hops(flow.sink);
  ASSERT_FALSE(stored.empty());
  for (const auto& s : stored) {
    // The hop stack IS the PathID's switch sequence, in order — the
    // hop-exact evidence this backend pays extra in-band bytes for.
    const std::span<const net::SwitchId> path =
        f.registry.lookup(s.rec.path_id);
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(s.hops.size(), path.size());
    for (std::size_t h = 0; h < s.hops.size(); ++h) {
      EXPECT_EQ(s.hops[h].sw, path[h]);
    }
    EXPECT_EQ(s.hops.back().sw, flow.sink);
    EXPECT_EQ(s.hops.back().out_port, net::kHostPort);
    // Transit hop latencies are measured, and each is bounded by the
    // record's end-to-end latency.
    for (std::size_t h = 0; h + 1 < s.hops.size(); ++h) {
      EXPECT_GT(s.hops[h].hop_latency, 0);
      EXPECT_LE(s.hops[h].hop_latency, s.rec.latency);
    }
  }
}

TEST(BackendDifferentialTest, InBandByteOrderingAcrossBackends) {
  // Identical traffic, three backends: histogram must undercut postcard
  // (7B marker vs 11B header) and int-md must exceed it (per-hop stack).
  std::uint64_t inband[3] = {};
  const BackendKind kinds[] = {BackendKind::kPostcard, BackendKind::kIntMd,
                               BackendKind::kHistogram};
  for (int i = 0; i < 3; ++i) {
    Fixture f(kinds[i]);
    const net::FlowId flow{f.ft.edge[0], f.ft.edge[4]};
    f.traffic(flow, 99, 60, 5_ms);
    f.engine.run();
    inband[i] = f.pipeline.backend().counters().inband_bytes;
    EXPECT_EQ(f.pipeline.overheads().telemetry_bytes, inband[i])
        << "pipeline accounting must mirror " << to_string(kinds[i]);
  }
  EXPECT_LT(inband[2], inband[0]) << "histogram must be cheapest in band";
  EXPECT_GT(inband[1], inband[0]) << "int-md must be dearest in band";
}

TEST(BackendSuiteTest, AllBackendsRunTheFaultSuite) {
  // The acceptance bar: every backend drives the full Table-1 fault suite
  // through the unmodified scenario runner — backends are config, not
  // code paths the runner knows about.
  const faults::FaultKind causes[] = {
      faults::FaultKind::kMicroBurst, faults::FaultKind::kEcmpImbalance,
      faults::FaultKind::kProcessRateDecrease, faults::FaultKind::kDelay,
      faults::FaultKind::kDrop};
  for (const auto kind :
       {BackendKind::kPostcard, BackendKind::kIntMd, BackendKind::kHistogram}) {
    for (const auto cause : causes) {
      ScenarioConfig cfg = default_scenario(cause, 11);
      cfg.duration = 4 * sim::kSecond;
      cfg.systems = {"mars"};
      cfg.mars.pipeline.backend.kind = kind;
      const ScenarioResult r = run_scenario(cfg);
      ASSERT_TRUE(r.fault_injected)
          << to_string(kind) << "/" << faults::to_string(cause);
      const SystemOutcome& outcome = r.outcome("mars");
      EXPECT_GT(outcome.telemetry_bytes, 0u)
          << to_string(kind) << "/" << faults::to_string(cause);
      EXPECT_FALSE(outcome.culprits.empty())
          << to_string(kind) << "/" << faults::to_string(cause);
    }
  }
}

}  // namespace
}  // namespace mars::telemetry
