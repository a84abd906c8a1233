#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "control/path_registry_cache.hpp"
#include "net/fat_tree.hpp"
#include "crc_oracle.hpp"
#include "net/leaf_spine.hpp"

namespace mars::control {
namespace {

// A deliberately plain reference for PathRegistry: per-path vectors from
// RoutingTable::enumerate_edge_paths() (a scan of every port against the
// hop distances), hop ports from port_towards(), PathIDs hashed byte by
// byte with the bit-serial oracle CRCs, collision groups in a std::map (whose
// ascending iteration is the separation order), and the same separate()
// rule. The flat registry must reproduce it exactly: path order, hops,
// ports, PathIDs, the MAT (keys and control values), every audit count,
// and every lookup.
struct ReferenceRegistry {
  telemetry::PathIdConfig config;
  std::vector<net::SwitchPath> switches;
  std::vector<std::vector<HopPorts>> ports;
  std::vector<std::uint32_t> ids;
  std::map<std::uint32_t, std::vector<std::size_t>> groups;
  telemetry::ControlMat mat;
  PathAuditReport audit;
  std::uint32_t next_control = 1;

  ReferenceRegistry(const net::Topology& topology,
                    const net::RoutingTable& routing,
                    telemetry::PathIdConfig cfg)
      : config(cfg) {
    switches = routing.enumerate_edge_paths();
    for (const net::SwitchPath& path : switches) {
      std::vector<HopPorts>& hops = ports.emplace_back();
      for (std::size_t i = 0; i < path.size(); ++i) {
        HopPorts hop{net::kHostPort, net::kHostPort};
        if (i > 0) hop.in_port = *topology.port_towards(path[i], path[i - 1]);
        if (i + 1 < path.size()) {
          hop.out_port = *topology.port_towards(path[i], path[i + 1]);
        }
        hops.push_back(hop);
      }
    }
    ids.resize(switches.size());
    resolve();
  }

  std::uint32_t step(std::uint32_t id, net::SwitchId sw,
                     const HopPorts& hop) const {
    const auto it = mat.find({id, sw, hop.in_port, hop.out_port});
    const std::uint32_t control = it == mat.end() ? 0 : it->second;
    return byte_serial_update(id, sw, hop, control);
  }

  /// The PathID hop update hashed one byte at a time by the oracle CRCs:
  /// {PathID, switch, in port, out port, control}, little-endian words.
  std::uint32_t byte_serial_update(std::uint32_t id, net::SwitchId sw,
                                   const HopPorts& hop,
                                   std::uint32_t control) const {
    const std::uint32_t words[5] = {id, sw, hop.in_port, hop.out_port,
                                    control};
    std::array<std::byte, 20> bytes{};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>(words[i / 4] >> (8 * (i % 4)));
    }
    const std::uint32_t digest = config.hash == telemetry::HashKind::kCrc16
                                     ? test_support::Crc16::compute(bytes)
                                     : test_support::Crc32::compute(bytes);
    return digest & config.mask();
  }

  std::size_t replay() {
    groups.clear();
    for (std::size_t i = 0; i < switches.size(); ++i) {
      std::uint32_t id = 0;
      for (std::size_t h = 0; h < switches[i].size(); ++h) {
        id = step(id, switches[i][h], ports[i][h]);
      }
      ids[i] = id;
      groups[id].push_back(i);
    }
    return switches.size() - groups.size();
  }

  void resolve() {
    if (switches.size() > std::size_t{config.mask()} + 1) {
      audit.initial_collisions = audit.residual_collisions = replay();
      audit.pigeonhole_infeasible = true;
    } else {
      for (int round = 0; round < 64; ++round) {
        const std::size_t conflicts = replay();
        if (round == 0) audit.initial_collisions = conflicts;
        audit.rounds = round + 1;
        if (conflicts == 0) {
          audit.conflict_free = true;
          break;
        }
        if (round + 1 == 64) {
          audit.residual_collisions = conflicts;
          break;
        }
        for (const auto& [id, members] : groups) {
          for (std::size_t m = 1; m < members.size(); ++m) {
            separate(members.front(), members[m]);
          }
        }
      }
    }
    for (const auto& [id, members] : groups) {
      if (members.size() > 1) ++audit.ambiguous_ids;
    }
  }

  void separate(std::size_t a, std::size_t b) {
    std::uint32_t id_a = 0, id_b = 0;
    std::optional<telemetry::HopKey> target;
    std::vector<telemetry::HopKey> keys;
    for (std::size_t h = 0; h < switches[b].size(); ++h) {
      const HopPorts& hb = ports[b][h];
      const telemetry::HopKey kb{id_b, switches[b][h], hb.in_port,
                                 hb.out_port};
      keys.push_back(kb);
      bool differs = true;
      if (h < switches[a].size()) {
        const HopPorts& ha = ports[a][h];
        const telemetry::HopKey ka{id_a, switches[a][h], ha.in_port,
                                   ha.out_port};
        differs = !(ka == kb);
        id_a = step(id_a, switches[a][h], ha);
      }
      if (differs && !mat.contains(kb)) target = kb;
      id_b = step(id_b, switches[b][h], hb);
    }
    if (target) {
      mat.emplace(*target, next_control++);
      return;
    }
    for (std::size_t h = keys.size(); h-- > 0;) {
      if (!mat.contains(keys[h])) {
        mat.emplace(keys[h], next_control++);
        return;
      }
    }
  }
};

[[nodiscard]] net::SwitchPath to_path(std::span<const net::SwitchId> s) {
  return {s.begin(), s.end()};
}

void expect_matches_reference(const net::Topology& topology,
                              const telemetry::PathIdConfig& cfg) {
  const net::RoutingTable routing{topology};
  const ReferenceRegistry ref(topology, routing, cfg);
  const PathRegistry reg(topology, routing, cfg);

  // Path table: order, switches, ports, replayed ids.
  ASSERT_EQ(reg.path_count(), ref.switches.size());
  for (std::size_t i = 0; i < reg.path_count(); ++i) {
    ASSERT_EQ(to_path(reg.path_switches(i)), ref.switches[i]) << "path " << i;
    const std::span<const HopPorts> ports = reg.path_ports(i);
    ASSERT_EQ(ports.size(), ref.ports[i].size()) << "path " << i;
    for (std::size_t h = 0; h < ports.size(); ++h) {
      EXPECT_EQ(ports[h].in_port, ref.ports[i][h].in_port)
          << "path " << i << " hop " << h;
      EXPECT_EQ(ports[h].out_port, ref.ports[i][h].out_port)
          << "path " << i << " hop " << h;
    }
    EXPECT_EQ(reg.path_id(i), ref.ids[i]) << "path " << i;
  }

  // The MAT: keys and the control values pinned to them.
  EXPECT_EQ(reg.mat().size(), ref.mat.size());
  for (const auto& [key, control] : ref.mat) {
    const auto it = reg.mat().find(key);
    ASSERT_NE(it, reg.mat().end())
        << "missing MAT entry at switch " << key.sw << " id_in "
        << key.path_id_in;
    EXPECT_EQ(it->second, control) << "switch " << key.sw;
  }

  // Every audit count.
  const PathAuditReport& a = reg.audit();
  const PathAuditReport& r = ref.audit;
  EXPECT_EQ(a.path_count, ref.switches.size());
  std::size_t hops = 0;
  for (const auto& path : ref.switches) hops += path.size();
  EXPECT_EQ(a.hop_count, hops);
  EXPECT_EQ(a.id_space, std::size_t{cfg.mask()} + 1);
  EXPECT_EQ(a.initial_collisions, r.initial_collisions);
  EXPECT_EQ(a.residual_collisions, r.residual_collisions);
  EXPECT_EQ(a.ambiguous_ids, r.ambiguous_ids);
  EXPECT_EQ(a.mat_entries, ref.mat.size());
  EXPECT_EQ(a.mat_overwrites, 0u);
  EXPECT_EQ(a.rounds, r.rounds);
  EXPECT_EQ(a.pigeonhole_infeasible, r.pigeonhole_infeasible);
  EXPECT_EQ(a.conflict_free, r.conflict_free);

  // lookup()/is_ambiguous() on every registered id...
  std::uint64_t ambiguous = 0;
  for (const auto& [id, members] : ref.groups) {
    const std::span<const net::SwitchId> found = reg.lookup(id);
    if (members.size() == 1) {
      EXPECT_FALSE(reg.is_ambiguous(id)) << "id " << id;
      EXPECT_EQ(to_path(found), ref.switches[members.front()]) << "id " << id;
      EXPECT_EQ(found.data(), reg.path_switches(members.front()).data());
    } else {
      EXPECT_TRUE(reg.is_ambiguous(id)) << "id " << id;
      EXPECT_TRUE(found.empty()) << "ambiguous id " << id;
      ++ambiguous;
    }
  }
  EXPECT_EQ(reg.ambiguous_lookups(), ambiguous);

  // ...and on unregistered ones, in and beyond the id space.
  std::mt19937 rng(cfg.width_bits * 7919u + ref.switches.size());
  std::size_t unregistered = 0;
  for (std::uint64_t attempt = 0; unregistered < 1000; ++attempt) {
    const std::uint32_t id = attempt % 2 == 0 ? rng() & cfg.mask() : rng();
    if (ref.groups.contains(id)) continue;
    EXPECT_TRUE(reg.lookup(id).empty()) << "unregistered id " << id;
    EXPECT_FALSE(reg.is_ambiguous(id)) << "unregistered id " << id;
    ++unregistered;
  }
  EXPECT_EQ(reg.ambiguous_lookups(), ambiguous);
}

[[nodiscard]] std::string shape(const telemetry::PathIdConfig& cfg) {
  return std::string(telemetry::hash_name(cfg.hash)) + "/" +
         std::to_string(cfg.width_bits);
}

TEST(PathRegistryReferenceTest, FatTreeK4MatchesReference) {
  // Widths 1 and 6 are pigeonholed, 8-10 need MAT separation, 12 and 16
  // hash injectively; CRC32/32 is the wide deployment shape.
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  std::vector<telemetry::PathIdConfig> configs;
  for (const std::uint32_t width : {1u, 6u, 8u, 9u, 10u, 12u, 16u}) {
    configs.push_back({telemetry::HashKind::kCrc16, width});
  }
  configs.push_back({telemetry::HashKind::kCrc32, 32});
  for (const telemetry::PathIdConfig& cfg : configs) {
    SCOPED_TRACE("k=4 " + shape(cfg));
    expect_matches_reference(ft.topology, cfg);
  }
}

TEST(PathRegistryReferenceTest, FatTreeK6Crc16Width14MatchesReference) {
  // 2538 paths with 193 initial collisions, separated over several rounds.
  const net::FatTree ft = net::build_fat_tree({.k = 6});
  expect_matches_reference(ft.topology, {telemetry::HashKind::kCrc16, 14});
}

TEST(PathRegistryReferenceTest, LeafSpineMatchesReference) {
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 12, .spines = 6});
  expect_matches_reference(ls.topology, {telemetry::HashKind::kCrc16, 12});
}

TEST(PathRegistryReferenceTest, RandomLeafSpinesMatchReference) {
  std::mt19937_64 rng(0xA11D5EEDull);
  std::uniform_int_distribution<int> leaves(4, 14);
  std::uniform_int_distribution<int> spines(2, 6);
  std::uniform_int_distribution<std::uint32_t> width(8, 20);
  for (int trial = 0; trial < 8; ++trial) {
    const net::LeafSpine ls =
        net::build_leaf_spine({.leaves = leaves(rng), .spines = spines(rng)});
    const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16,
                                      width(rng)};
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(ls.leaf.size()) + " leaves, " +
                 std::to_string(ls.spine.size()) + " spines, " + shape(cfg));
    expect_matches_reference(ls.topology, cfg);
  }
}

void expect_same_registry(const PathRegistry& a, const PathRegistry& b) {
  ASSERT_EQ(a.path_count(), b.path_count());
  for (std::size_t i = 0; i < a.path_count(); ++i) {
    EXPECT_EQ(to_path(a.path_switches(i)), to_path(b.path_switches(i)));
    EXPECT_EQ(a.path_id(i), b.path_id(i));
    const std::span<const HopPorts> pa = a.path_ports(i);
    const std::span<const HopPorts> pb = b.path_ports(i);
    ASSERT_EQ(pa.size(), pb.size()) << "path " << i;
    for (std::size_t h = 0; h < pa.size(); ++h) {
      EXPECT_EQ(pa[h].in_port, pb[h].in_port) << "path " << i << " hop " << h;
      EXPECT_EQ(pa[h].out_port, pb[h].out_port)
          << "path " << i << " hop " << h;
    }
  }
  EXPECT_EQ(a.mat(), b.mat());
  const PathAuditReport& ra = a.audit();
  const PathAuditReport& rb = b.audit();
  EXPECT_EQ(ra.initial_collisions, rb.initial_collisions);
  EXPECT_EQ(ra.residual_collisions, rb.residual_collisions);
  EXPECT_EQ(ra.ambiguous_ids, rb.ambiguous_ids);
  EXPECT_EQ(ra.mat_entries, rb.mat_entries);
  EXPECT_EQ(ra.mat_overwrites, rb.mat_overwrites);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(a.conflict_free(), b.conflict_free());
}

TEST(PathRegistryCacheTest, HitReturnsSameRegistryAsColdBuild) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};

  const auto first = cache.get_or_build(ft.topology, routing, cfg);
  const auto second = cache.get_or_build(ft.topology, routing, cfg);
  EXPECT_EQ(first.get(), second.get());  // hit: the very same object
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A cached registry must be indistinguishable from a direct cold build.
  const PathRegistry cold(ft.topology, routing, cfg);
  expect_same_registry(cold, *first);
  cache.clear();
}

TEST(PathRegistryCacheTest, KeyDistinguishesConfigAndTopology) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable ft_routing{ft.topology};
  const net::LeafSpine ls = net::build_leaf_spine({.leaves = 6, .spines = 3});
  const net::RoutingTable ls_routing{ls.topology};

  const auto a = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc16, 16});
  const auto b = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc16, 12});
  const auto c = cache.get_or_build(ft.topology, ft_routing,
                                    {telemetry::HashKind::kCrc32, 16});
  const auto d = cache.get_or_build(ls.topology, ls_routing,
                                    {telemetry::HashKind::kCrc16, 16});
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.clear();
}

TEST(PathRegistryCacheTest, ConcurrentGetOrBuildBuildsOnce) {
  auto& cache = PathRegistryCache::instance();
  cache.clear();
  const net::FatTree ft = net::build_fat_tree({.k = 4});
  const net::RoutingTable routing{ft.topology};
  const telemetry::PathIdConfig cfg{telemetry::HashKind::kCrc16, 16};

  std::vector<std::shared_ptr<const PathRegistry>> got(8);
  std::vector<std::thread> workers;
  workers.reserve(got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    workers.emplace_back(
        [&, i] { got[i] = cache.get_or_build(ft.topology, routing, cfg); });
  }
  for (auto& w : workers) w.join();
  for (const auto& r : got) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), got[0].get());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, got.size() - 1);
  cache.clear();
}

}  // namespace
}  // namespace mars::control
