#include "control/path_registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>

#include "net/fat_tree.hpp"
#include "obs/event_log.hpp"

namespace mars::control {
namespace {

struct Built {
  net::FatTree ft = net::build_fat_tree({.k = 4});
  net::RoutingTable routing{ft.topology};
};

[[nodiscard]] net::SwitchPath to_path(std::span<const net::SwitchId> s) {
  return {s.begin(), s.end()};
}

TEST(PathRegistryTest, RegistersAllEdgePaths) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing, {});
  // K=4 ordered edge pairs: 16 three-switch + 192 five-switch paths.
  EXPECT_EQ(reg.path_count(), 208u);
}

TEST(PathRegistryTest, UnreachablePairsRegisterNoPath) {
  // Two edge switches share an aggregation switch; a third stands alone,
  // so four of the six ordered edge pairs have no path at all.
  net::Topology topology;
  const net::SwitchId a = topology.add_switch(net::Layer::kEdge);
  const net::SwitchId b = topology.add_switch(net::Layer::kEdge);
  topology.add_switch(net::Layer::kEdge);
  const net::SwitchId agg = topology.add_switch(net::Layer::kAggregation);
  topology.add_link(a, agg);
  topology.add_link(b, agg);
  const net::RoutingTable routing(topology);
  const PathRegistry reg(topology, routing, {});
  ASSERT_EQ(reg.path_count(), 2u);
  EXPECT_EQ(to_path(reg.path_switches(0)), (net::SwitchPath{a, agg, b}));
  EXPECT_EQ(to_path(reg.path_switches(1)), (net::SwitchPath{b, agg, a}));
  EXPECT_TRUE(reg.conflict_free());

  // No pair connected: nothing to register.
  net::Topology islands;
  islands.add_switch(net::Layer::kEdge);
  islands.add_switch(net::Layer::kEdge);
  const net::RoutingTable island_routing(islands);
  const PathRegistry empty(islands, island_routing, {});
  EXPECT_EQ(empty.path_count(), 0u);
  EXPECT_EQ(empty.audit().hop_count, 0u);
}

TEST(PathRegistryTest, ResolvesToUniqueIds) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 16});
  EXPECT_TRUE(reg.conflict_free());
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < reg.path_count(); ++i) ids.insert(reg.path_id(i));
  EXPECT_EQ(ids.size(), reg.path_count());
}

TEST(PathRegistryTest, LookupDecompressesPath) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing, {});
  for (std::size_t i = 0; i < reg.path_count(); ++i) {
    const std::span<const net::SwitchId> found = reg.lookup(reg.path_id(i));
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(to_path(found), to_path(reg.path_switches(i)));
  }
  EXPECT_TRUE(reg.lookup(0xDEADBEEF & 0xFFFF).empty());  // probably unknown
}

TEST(PathRegistryTest, NarrowWidthForcesConflictsButStillResolves) {
  Built b;
  // 208 paths into 8 bits (256 values): collisions guaranteed by load.
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 8});
  EXPECT_GT(reg.initial_collisions(), 0u);
  if (reg.conflict_free()) {
    std::set<std::uint32_t> ids;
    for (std::size_t i = 0; i < reg.path_count(); ++i) {
      ids.insert(reg.path_id(i));
    }
    EXPECT_EQ(ids.size(), reg.path_count());
    EXPECT_GT(reg.mat_entry_count(), 0u);
  }
}

TEST(PathRegistryTest, WiderHashNeedsFewerMatEntriesThanNarrow) {
  Built b;
  const PathRegistry narrow(b.ft.topology, b.routing,
                            {telemetry::HashKind::kCrc16, 10});
  const PathRegistry wide(b.ft.topology, b.routing,
                          {telemetry::HashKind::kCrc32, 32});
  EXPECT_LE(wide.mat_entry_count(), narrow.mat_entry_count());
}

TEST(PathRegistryTest, MemoryAccountingMatchesPaperShape) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 16});
  // IntSight assigns one entry per hop of every path; MARS only pays for
  // hash conflicts. §5.5: M_IS > M_MS in all cases.
  EXPECT_GT(reg.intsight_memory_bytes(), reg.mars_memory_bytes());
  // Our ordered-pair census: 16*3 + 192*5 = 1008 hops at 7B each.
  EXPECT_EQ(reg.intsight_memory_bytes(), 1008u * 7u);
}

TEST(PathRegistryTest, AmbiguousLookupReturnsNullAndCounts) {
  Built b;
  // 208 paths into 1 bit: two PathID values, so almost every id is shared
  // by many paths and can never be resolved (pigeonhole).
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 1});
  EXPECT_FALSE(reg.conflict_free());
  ASSERT_GT(reg.audit().ambiguous_ids, 0u);
  EXPECT_EQ(reg.ambiguous_lookups(), 0u);
  std::uint64_t expected = 0;
  for (const std::uint32_t id : {0u, 1u}) {
    if (reg.is_ambiguous(id)) {
      // An ambiguous id must never decompress to an arbitrary survivor.
      EXPECT_TRUE(reg.lookup(id).empty());
      ++expected;
    }
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(reg.ambiguous_lookups(), expected);
}

TEST(PathRegistryTest, PigeonholeInfeasibleWidthIsAuditedNotChurned) {
  Built b;
  // 208 paths into 6 bits (64 values) cannot be injective; the build must
  // record the census and skip resolution instead of spinning 64 rounds.
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 6});
  const PathAuditReport& a = reg.audit();
  EXPECT_FALSE(a.conflict_free);
  EXPECT_TRUE(a.pigeonhole_infeasible);
  EXPECT_EQ(a.rounds, 0);
  EXPECT_EQ(a.mat_entries, 0u);
  EXPECT_EQ(a.residual_collisions, a.initial_collisions);
  EXPECT_GE(a.initial_collisions, reg.path_count() - a.id_space);
}

TEST(PathRegistryTest, SeparateNeverOverwritesInstalledEntries) {
  Built b;
  // Dense widths stress the separate() fallback paths; a clobbered MAT
  // entry would un-resolve a previously separated pair, so the overwrite
  // counter must stay zero everywhere resolution is feasible.
  for (const std::uint32_t width : {8u, 9u, 10u, 12u, 16u}) {
    const PathRegistry reg(b.ft.topology, b.routing,
                           {telemetry::HashKind::kCrc16, width});
    EXPECT_EQ(reg.audit().mat_overwrites, 0u) << "width " << width;
  }
}

TEST(PathRegistryTest, AuditReportMatchesRegistryCounts) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 10});
  const PathAuditReport& a = reg.audit();
  EXPECT_EQ(a.path_count, reg.path_count());
  EXPECT_EQ(a.hop_count, 1008u);
  EXPECT_EQ(a.id_space, 1024u);
  EXPECT_EQ(a.initial_collisions, reg.initial_collisions());
  EXPECT_EQ(a.conflict_free, reg.conflict_free());
  EXPECT_EQ(a.mat_entries, reg.mat_entry_count());
  EXPECT_EQ(a.mars_memory_bytes, reg.mars_memory_bytes());
  EXPECT_EQ(a.intsight_memory_bytes, reg.intsight_memory_bytes());
  if (a.conflict_free) {
    EXPECT_EQ(a.residual_collisions, 0u);
    EXPECT_EQ(a.ambiguous_ids, 0u);
  }
}

TEST(PathRegistryTest, UnresolvedCollisionsEmitStructuredError) {
  Built b;
  const PathRegistry bad(b.ft.topology, b.routing,
                         {telemetry::HashKind::kCrc16, 1});
  obs::EventLog log;
  bad.log_audit(log, 0);
  bool saw_audit = false, saw_error = false;
  for (const auto& e : log.events()) {
    if (e.component != "pathid") continue;
    if (e.event == "audit") saw_audit = true;
    if (e.event == "unresolved_collisions") {
      saw_error = true;
      EXPECT_EQ(e.level, obs::LogLevel::kError);
    }
  }
  EXPECT_TRUE(saw_audit);
  EXPECT_TRUE(saw_error);

  const PathRegistry good(b.ft.topology, b.routing,
                          {telemetry::HashKind::kCrc16, 16});
  obs::EventLog clean_log;
  good.log_audit(clean_log, 0);
  for (const auto& e : clean_log.events()) {
    EXPECT_NE(e.event, "unresolved_collisions");
  }
}

TEST(PathRegistryTest, HopPortsAreConsistentWithTopology) {
  Built b;
  const PathRegistry reg(b.ft.topology, b.routing, {});
  for (std::size_t p = 0; p < reg.path_count(); ++p) {
    const std::span<const net::SwitchId> sws = reg.path_switches(p);
    const std::span<const HopPorts> hops = reg.path_ports(p);
    ASSERT_EQ(hops.size(), sws.size());
    EXPECT_EQ(hops.front().in_port, net::kHostPort);
    EXPECT_EQ(hops.back().out_port, net::kHostPort);
    for (std::size_t i = 0; i + 1 < sws.size(); ++i) {
      const auto port = b.ft.topology.port_towards(sws[i], sws[i + 1]);
      ASSERT_TRUE(port.has_value());
      EXPECT_EQ(hops[i].out_port, *port);
      const auto back = b.ft.topology.port_towards(sws[i + 1], sws[i]);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(hops[i + 1].in_port, *back);
    }
  }
}

}  // namespace
}  // namespace mars::control
