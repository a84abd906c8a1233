// Gray-failure fault family: Gilbert–Elliott flap determinism, per-kind
// manifestation accounting, and the late-injection liveness fix (the
// injector must never target a port whose flows finished before the
// fault window opens).

#include "faults/injector.hpp"
#include "faults/schedule.hpp"

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

  explicit Fixture(bool traffic = true) {
    if (!traffic) return;
    workload::BackgroundConfig cfg;
    cfg.flows = 8;
    gen.add_background(cfg, ft.edge, 4);
    gen.start();
  }
};

FaultEvent gray_event(FaultKind kind, sim::Time at, sim::Time duration) {
  FaultEvent event;
  event.kind = kind;
  event.at = at;
  event.duration = duration;
  return event;
}

// The whole Gilbert–Elliott timeline is drawn at injection time from the
// injector's seeded stream: two injectors with the same seed produce
// bit-identical transition sequences; a different seed diverges.
TEST(GrayFaultsTest, FlapTimelineIsSeedDeterministic) {
  Fixture a, b;
  const auto ta = a.injector.inject(gray_event(FaultKind::kLinkFlap, 1_s, 3_s));
  const auto tb = b.injector.inject(gray_event(FaultKind::kLinkFlap, 1_s, 3_s));
  ASSERT_TRUE(ta.has_value());
  ASSERT_TRUE(tb.has_value());
  ASSERT_FALSE(ta->flap_transitions.empty());
  EXPECT_EQ(ta->flap_transitions, tb->flap_transitions);
  EXPECT_EQ(ta->switch_id, tb->switch_id);
  EXPECT_EQ(ta->port, tb->port);

  net::Engine engine2{a.ft.topology};
  net::Network& net2 = engine2.network();
  workload::TrafficGenerator gen2{net2, 3};
  FaultInjector other{net2, gen2, 18};  // different injector seed
  workload::BackgroundConfig cfg;
  cfg.flows = 8;
  gen2.add_background(cfg, a.ft.edge, 4);
  gen2.start();
  const auto tc = other.inject(gray_event(FaultKind::kLinkFlap, 1_s, 3_s));
  ASSERT_TRUE(tc.has_value());
  EXPECT_NE(ta->flap_transitions, tc->flap_transitions);
}

// Transitions alternate down/up inside (at, at+duration) and the mean
// dwell knobs shape the timeline: a much shorter mean down time yields
// more transitions over the same window.
TEST(GrayFaultsTest, FlapTransitionsStayInsideFaultWindow) {
  Fixture f;
  const auto truth =
      f.injector.inject(gray_event(FaultKind::kLinkFlap, 1_s, 3_s));
  ASSERT_TRUE(truth.has_value());
  for (const sim::Time t : truth->flap_transitions) {
    EXPECT_GT(t, 1_s);
    EXPECT_LT(t, 4_s);
  }
  for (std::size_t i = 1; i < truth->flap_transitions.size(); ++i) {
    EXPECT_LT(truth->flap_transitions[i - 1], truth->flap_transitions[i]);
  }
}

// A flapping link actually drops packets while down, and the injector's
// probes record the burst structure: manifested in some but (for dwell
// times comparable to the window) typically not all windows.
TEST(GrayFaultsTest, FlapManifestsAndIsAccounted) {
  Fixture f;
  const auto truth =
      f.injector.inject(gray_event(FaultKind::kLinkFlap, 1_s, 2_s));
  ASSERT_TRUE(truth.has_value());
  f.engine.run(4_s);
  const GroundTruth& final = f.injector.injected().front();
  EXPECT_GT(final.windows_total, 0u);
  EXPECT_GT(final.windows_active, 0u);
  EXPECT_LE(final.windows_active, final.windows_total);
  EXPECT_GT(final.manifestation_ratio, 0.0);
  EXPECT_GT(f.net.stats().dropped, 0u);
  // Drops were attributed to the fault, not just ambient congestion.
  std::uint64_t fault_drops = 0;
  for (net::PortId p = 0; p < f.net.topology().port_count(final.switch_id);
       ++p) {
    fault_drops += f.net.node(final.switch_id).counters(p).fault_drops;
  }
  EXPECT_GT(fault_drops, 0u);
}

// A gray fault pinned to an unloaded switch never perturbs a packet, and
// the bookkeeping says so: every probe window inactive, ratio 0. This is
// the honesty property the flap-aware confidence calibration builds on.
TEST(GrayFaultsTest, UnloadedSlowDrainManifestsNowhere) {
  Fixture f{/*traffic=*/false};
  auto event = gray_event(FaultKind::kSlowDrain, 1_s, 2_s);
  event.target_switch = f.ft.core.front();
  event.target_port = 0;
  const auto truth = f.injector.inject(event);
  ASSERT_TRUE(truth.has_value());
  f.engine.run(4_s);
  const GroundTruth& final = f.injector.injected().front();
  EXPECT_GT(final.windows_total, 0u);
  EXPECT_EQ(final.windows_active, 0u);
  EXPECT_EQ(final.manifestation_ratio, 0.0);
}

TEST(GrayFaultsTest, GatedDelayInertBelowThreshold) {
  Fixture f{/*traffic=*/false};
  auto event = gray_event(FaultKind::kLoadGatedDelay, 1_s, 2_s);
  event.target_switch = f.ft.core.front();
  event.target_port = 0;
  event.gray.gate_depth = 64;  // far above any queue this trial builds
  const auto truth = f.injector.inject(event);
  ASSERT_TRUE(truth.has_value());
  f.engine.run(4_s);
  EXPECT_EQ(f.injector.injected().front().manifestation_ratio, 0.0);
}

TEST(GrayFaultsTest, DescribeIncludesManifestation) {
  GroundTruth t;
  t.kind = FaultKind::kLinkFlap;
  t.switch_id = 9;
  t.port = 2;
  EXPECT_EQ(t.describe(), "link-flap @ s9 port 2");
  t.windows_total = 10;
  t.windows_active = 7;
  EXPECT_EQ(t.describe(), "link-flap @ s9 port 2 manifested 7/10 windows");
}

// Regression for the late-injection liveness fix: with every background
// flow finished before the fault window opens, the draw must either find
// the one still-alive flow or (if none) decline to inject — never target
// a port whose traffic is already gone.
TEST(GrayFaultsTest, LateInjectionDrawsFromAliveFlowsOnly) {
  Fixture f{/*traffic=*/false};
  // One short-lived flow (stops at 1s) and one long-lived flow on a
  // disjoint edge pair; inject at 2s.
  workload::FlowSpec dead;
  dead.flow = {f.ft.edge[0], f.ft.edge[1]};
  dead.flow_hash = 7;
  dead.stop = 1_s;
  f.gen.add_flow(dead);
  workload::FlowSpec alive;
  alive.flow = {f.ft.edge[2], f.ft.edge[3]};
  alive.flow_hash = 11;
  f.gen.add_flow(alive);
  f.gen.start();

  const auto truth = f.injector.inject(FaultKind::kDrop, 2_s);
  ASSERT_TRUE(truth.has_value());
  // The target must sit on the alive flow's path: walk it and collect the
  // (switch, egress) hops.
  bool on_alive_path = false;
  net::SwitchId at = alive.flow.source;
  for (int hop = 0; hop < 8 && at != alive.flow.sink; ++hop) {
    net::PortId out = 0;
    ASSERT_TRUE(
        f.net.routing().select_port(at, alive.flow.sink, alive.flow_hash, out));
    if (at == truth->switch_id && out == truth->port) on_alive_path = true;
    at = f.net.topology().peer(at, out).neighbor;
  }
  EXPECT_TRUE(on_alive_path)
      << "fault landed on " << truth->describe()
      << " which the only alive flow never crosses";
}

TEST(GrayFaultsTest, NoAliveFlowMeansNoInjection) {
  Fixture f{/*traffic=*/false};
  workload::FlowSpec dead;
  dead.flow = {f.ft.edge[0], f.ft.edge[1]};
  dead.flow_hash = 7;
  dead.stop = 1_s;
  f.gen.add_flow(dead);
  f.gen.start();
  EXPECT_FALSE(f.injector.inject(FaultKind::kDrop, 2_s).has_value());
}

// Schedule validation: gray parameter blocks only attach to gray kinds,
// and out-of-range values are named errors.
TEST(GrayFaultsTest, ValidateRejectsGrayParamsOnCleanKinds) {
  FaultSchedule schedule;
  auto event = gray_event(FaultKind::kDrop, 1_s, 1_s);
  event.gray.flap_mean_up_ms = 50.0;
  schedule.add(event);
  const auto errors = schedule.validate(5_s);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("gray"), std::string::npos);
}

TEST(GrayFaultsTest, ValidateRejectsOutOfRangeGrayParams) {
  FaultSchedule schedule;
  auto flap = gray_event(FaultKind::kLinkFlap, 1_s, 1_s);
  flap.gray.flap_mean_down_ms = -3.0;
  schedule.add(flap);
  auto loss = gray_event(FaultKind::kAsymmetricLoss, 1_s, 1_s);
  loss.gray.loss_fwd = 1.5;
  schedule.add(loss);
  auto gate = gray_event(FaultKind::kLoadGatedDelay, 1_s, 1_s);
  gate.gray.gate_depth = 1;
  schedule.add(gate);
  const auto errors = schedule.validate(5_s);
  EXPECT_EQ(errors.size(), 3u);
}

}  // namespace
}  // namespace mars::faults
