#include "control/path_registry.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/event_log.hpp"

namespace mars::control {

namespace {

[[nodiscard]] std::uint32_t id_of(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] std::size_t index_of(std::uint64_t key) {
  return static_cast<std::size_t>(key & 0xFFFFFFFFu);
}

/// Stable LSD radix sort of (id << 32 | index) keys on the id: four 8-bit
/// passes with 256-entry counts (a 16-bit digit's 512 KB count arrays
/// cost more than they save on small registries). Keys arrive in index
/// order, so equal ids keep it.
void sort_by_path_id(std::vector<std::uint64_t>& keys) {
  std::array<std::array<std::size_t, 256>, 4> counts{};
  for (const std::uint64_t key : keys) {
    for (std::size_t pass = 0; pass < counts.size(); ++pass) {
      ++counts[pass][(key >> (32 + 8 * pass)) & 0xFFu];
    }
  }
  std::vector<std::uint64_t> buffer(keys.size());
  for (std::size_t pass = 0; pass < counts.size(); ++pass) {
    const std::size_t shift = 32 + 8 * pass;
    std::array<std::size_t, 256>& count = counts[pass];
    std::size_t next = 0;
    for (std::size_t& c : count) next += std::exchange(c, next);
    for (const std::uint64_t key : keys) {
      buffer[count[(key >> shift) & 0xFFu]++] = key;
    }
    keys.swap(buffer);
  }
}

/// One past the last key whose id equals keys[begin]'s: the end of that
/// collision group.
[[nodiscard]] std::size_t group_end(const std::vector<std::uint64_t>& keys,
                                    std::size_t begin) {
  std::size_t end = begin + 1;
  while (end < keys.size() && id_of(keys[end]) == id_of(keys[begin])) ++end;
  return end;
}

}  // namespace

/// update_path_id(config, 0, sw, in, out, 0) for every switch and each
/// (in port, out port) pair of it, kHostPort included: the part of a hop
/// update that does not depend on the entering PathID. A replayed hop
/// then costs one load here plus telemetry::path_id_term's four lookups.
/// A switch with P ports takes (P + 1)^2 entries (81 or 289 at k=16).
class PathRegistry::HopTerms {
 public:
  HopTerms(const net::Topology& topology,
           const telemetry::PathIdConfig& config) {
    switches_.reserve(topology.switch_count());
    for (net::SwitchId sw = 0; sw < topology.switch_count(); ++sw) {
      const std::size_t slots = topology.port_count(sw) + 1;
      switches_.push_back({terms_.size(), slots});
      for (std::size_t in = 0; in < slots; ++in) {
        for (std::size_t out = 0; out < slots; ++out) {
          terms_.push_back(telemetry::update_path_id(
              config, 0, sw, port_at(in), port_at(out), 0));
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t operator()(net::SwitchId sw,
                                         const HopPorts& ports) const {
    const Switch& s = switches_[sw];
    return terms_[s.first + slot(ports.in_port) * s.slots +
                  slot(ports.out_port)];
  }

 private:
  struct Switch {
    std::size_t first = 0;  ///< index of the switch's (slot 0, slot 0) term
    std::size_t slots = 0;  ///< ports + 1
  };
  // kHostPort takes slot 0 and port p slot p + 1.
  [[nodiscard]] static std::size_t slot(net::PortId port) {
    return static_cast<net::PortId>(port + 1);
  }
  [[nodiscard]] static net::PortId port_at(std::size_t slot) {
    return static_cast<net::PortId>(slot - 1);
  }

  std::vector<Switch> switches_;
  std::vector<std::uint32_t> terms_;
};

PathRegistry::PathRegistry(const net::Topology& topology,
                           const net::RoutingTable& routing,
                           telemetry::PathIdConfig config)
    : config_(config) {
  const auto start = std::chrono::steady_clock::now();
  enumerate(topology, routing);
  resolve_conflicts(HopTerms(topology, config_));

  audit_.config = config_;
  audit_.path_count = path_count();
  audit_.hop_count = switches_.size();
  audit_.id_space = static_cast<std::size_t>(config_.mask()) + 1;
  audit_.mat_entries = mat_.size();
  audit_.mars_memory_bytes = mars_memory_bytes();
  audit_.intsight_memory_bytes = intsight_memory_bytes();
  audit_.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void PathRegistry::enumerate(const net::Topology& topology,
                             const net::RoutingTable& routing) {
  // The next hops towards a destination are its ECMP group's members, the
  // ports whose neighbor is one hop closer, in port order. Faults rewrite
  // only member weights, so the groups are the shortest-path DAG.
  const auto next_hops = [&](net::SwitchId at, net::SwitchId dst) {
    return std::span<const net::EcmpMember>(routing.group(at, dst).members);
  };
  const std::vector<net::SwitchId> edges =
      topology.switches_in_layer(net::Layer::kEdge);

  // Count first, so the flat arrays are allocated once at their exact
  // size: per destination, the paths from each switch and their length
  // (every shortest path from one switch has the same), memoized over
  // the DAG. An unreachable pair has an empty group and counts nothing.
  struct Reach {
    std::uint64_t paths = 0;
    std::uint64_t hops = 0;  ///< per path; 0 until computed
  };
  std::vector<Reach> reach(topology.switch_count());
  std::uint64_t path_total = 0;
  std::uint64_t hop_total = 0;
  std::uint64_t max_hops = 0;
  for (const net::SwitchId dst : edges) {
    std::fill(reach.begin(), reach.end(), Reach{});
    reach[dst] = {1, 1};
    const auto count = [&](const auto& self, net::SwitchId at) -> Reach {
      if (reach[at].hops != 0) return reach[at];
      Reach sum;
      for (const net::EcmpMember& m : next_hops(at, dst)) {
        const Reach next = self(self, topology.peer(at, m.port).neighbor);
        sum.paths += next.paths;
        sum.hops = next.hops + 1;
      }
      return reach[at] = sum;
    };
    for (const net::SwitchId src : edges) {
      if (src == dst) continue;
      const Reach r = count(count, src);
      path_total += r.paths;
      hop_total += r.paths * r.hops;
      max_hops = std::max(max_hops, r.hops);
    }
  }
  // Keys pack the path index into 32 bits, and offsets the hop index.
  if (hop_total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("PathRegistry: more than 2^32 hops to register");
  }
  switches_.reserve(hop_total);
  ports_.reserve(hop_total);
  offsets_.reserve(path_total + 1);

  // Depth-first over each (source, destination) pair's DAG: sources, then
  // destinations, in edge-layer order, next hops in port order —
  // RoutingTable::enumerate_edge_paths()'s order. Each hop's ports come
  // from the DFS edge itself (the local port and the peer's port). The
  // path being walked lives in `path`/`path_ports`, and each finished one
  // is appended to the flat arrays.
  std::vector<net::SwitchId> path(max_hops);
  std::vector<HopPorts> path_ports(max_hops);
  offsets_.push_back(0);
  for (const net::SwitchId src : edges) {
    for (const net::SwitchId dst : edges) {
      if (src == dst || next_hops(src, dst).empty()) continue;  // no path
      const auto dfs = [&](const auto& self, net::SwitchId cur,
                           net::PortId in_port, std::size_t depth) -> void {
        path[depth] = cur;
        path_ports[depth].in_port = in_port;
        if (cur == dst) {
          path_ports[depth].out_port = net::kHostPort;
          switches_.insert(switches_.end(), path.begin(),
                           path.begin() + depth + 1);
          ports_.insert(ports_.end(), path_ports.begin(),
                        path_ports.begin() + depth + 1);
          offsets_.push_back(static_cast<std::uint32_t>(switches_.size()));
          return;
        }
        for (const net::EcmpMember& m : next_hops(cur, dst)) {
          const net::Topology::PortPeer& peer = topology.peer(cur, m.port);
          path_ports[depth].out_port = m.port;
          self(self, peer.neighbor, peer.neighbor_port, depth + 1);
        }
      };
      dfs(dfs, src, net::kHostPort, 0);
    }
  }
  ids_.resize(path_total);
  keys_.resize(path_total);
}

std::size_t PathRegistry::replay_and_group(const HopTerms& hop_terms) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::uint32_t id = 0;
    for (std::uint32_t h = offsets_[i]; h < offsets_[i + 1]; ++h) {
      const net::SwitchId sw = switches_[h];
      const HopPorts& ports = ports_[h];
      std::uint32_t rest = hop_terms(sw, ports);
      if (!mat_.empty()) {
        const auto it = mat_.find({id, sw, ports.in_port, ports.out_port});
        if (it != mat_.end()) {
          rest = telemetry::update_path_id(config_, 0, sw, ports.in_port,
                                           ports.out_port, it->second);
        }
      }
      id = telemetry::path_id_term(config_, id) ^ rest;
    }
    ids_[i] = id;
    keys_[i] = (std::uint64_t{id} << 32) | i;
  }
  sort_by_path_id(keys_);
  std::size_t groups = 0;
  for (std::size_t begin = 0; begin < keys_.size();
       begin = group_end(keys_, begin)) {
    ++groups;
  }
  return keys_.size() - groups;
}

void PathRegistry::resolve_conflicts(const HopTerms& hop_terms) {
  // Iteratively: recompute all ids; for every group of paths sharing an
  // id, keep the first and pin a fresh control value for each of the
  // others at the first hop where their running keys diverge from the
  // keeper's. Fixing whole groups per round shrinks the conflict count
  // geometrically, so even dense tables (K=8: ~15k paths in 16 bits)
  // settle in a handful of rounds.
  constexpr int kMaxRounds = 64;

  // Pigeonhole: with more paths than PathID values no MAT assignment can
  // be injective, so 64 rounds of separation would only churn. Record the
  // raw collision census and stop — validation rejects the config.
  if (path_count() > static_cast<std::size_t>(config_.mask()) + 1) {
    audit_.initial_collisions = replay_and_group(hop_terms);
    audit_.residual_collisions = audit_.initial_collisions;
    audit_.pigeonhole_infeasible = true;
    audit_.conflict_free = false;
    audit_.rounds = 0;
  } else {
    for (int round = 0; round < kMaxRounds; ++round) {
      const std::size_t conflicts = replay_and_group(hop_terms);
      if (round == 0) audit_.initial_collisions = conflicts;
      audit_.rounds = round + 1;
      if (conflicts == 0) {
        audit_.conflict_free = true;
        audit_.residual_collisions = 0;
        break;
      }
      if (round + 1 == kMaxRounds) {
        // Give up *with the keys consistent*: the ids and groups reflect
        // the final MAT (no separation whose effect was never
        // re-checked), and the residual census is what validation
        // reports.
        audit_.conflict_free = false;
        audit_.residual_collisions = conflicts;
        break;
      }
      // Collision groups are runs of equal ids in the sorted keys,
      // separated in ascending PathID order; within a run the keys keep
      // path-index order, so the first member is the keeper.
      for (std::size_t begin = 0, end = 0; begin < keys_.size();
           begin = end) {
        end = group_end(keys_, begin);
        for (std::size_t m = begin + 1; m < end; ++m) {
          separate(index_of(keys_[begin]), index_of(keys_[m]));
        }
      }
    }
  }
  for (std::size_t begin = 0, end = 0; begin < keys_.size(); begin = end) {
    end = group_end(keys_, begin);
    if (end - begin > 1) ++audit_.ambiguous_ids;
  }
}

void PathRegistry::separate(std::size_t keeper, std::size_t other) {
  // Pin a fresh control value for `other` at the LAST hop whose running
  // key differs from the keeper's and has no MAT entry yet. Early hops'
  // keys are shared by every sibling path through the same prefix (e.g.
  // all paths leaving the source via one port), so rewriting them
  // re-hashes large path families and thrashes; the deepest key is the
  // most specific.
  const auto key_at = [this](std::uint32_t id, std::uint32_t h) {
    return telemetry::HopKey{id, switches_[h], ports_[h].in_port,
                             ports_[h].out_port};
  };
  const auto step = [this](std::uint32_t id, std::uint32_t h) {
    return telemetry::update_path_id_with_mat(config_, mat_, id, switches_[h],
                                              ports_[h].in_port,
                                              ports_[h].out_port);
  };
  const std::uint32_t a0 = offsets_[keeper], a_len = offsets_[keeper + 1] - a0;
  const std::uint32_t b0 = offsets_[other], b_len = offsets_[other + 1] - b0;
  std::uint32_t id_a = 0, id_b = 0;
  std::optional<telemetry::HopKey> target;
  std::vector<telemetry::HopKey> keys;
  keys.reserve(b_len);
  for (std::uint32_t h = 0; h < b_len; ++h) {
    const telemetry::HopKey kb = key_at(id_b, b0 + h);
    keys.push_back(kb);
    bool differs = true;
    if (h < a_len) {
      differs = !(key_at(id_a, a0 + h) == kb);
      id_a = step(id_a, a0 + h);
    }
    if (differs && mat_.find(kb) == mat_.end()) target = kb;
    id_b = step(id_b, b0 + h);
  }
  if (target) {
    mat_.emplace(*target, next_control_++);
    return;
  }
  // No differing MAT-free hop. Re-rolling ANY hop of b re-hashes it (a
  // shares the key, so a re-rolls identically up to the fresh control's
  // avalanche), so take the deepest hop whose key is still free rather
  // than clobber an installed entry — overwriting un-resolves whichever
  // previously separated pair that entry was pinned for.
  for (std::size_t h = keys.size(); h-- > 0;) {
    if (mat_.find(keys[h]) == mat_.end()) {
      mat_.emplace(keys[h], next_control_++);
      return;
    }
  }
  // Every hop of b already carries an entry. Overwriting one would
  // un-resolve whichever previously separated pair that entry was pinned
  // for — the silent-clobber bug this pass exists to prevent — so leave b
  // alone this round. Other separations re-hash the table, which usually
  // frees a key by the next round; if not, the give-up path records b in
  // the residual census and validation rejects the config.
}

std::span<const std::uint64_t> PathRegistry::members(
    std::uint32_t path_id) const {
  const std::uint64_t lo = std::uint64_t{path_id} << 32;
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  const auto last = std::upper_bound(first, keys_.end(), lo | 0xFFFFFFFFu);
  return {first, last};
}

std::span<const net::SwitchId> PathRegistry::lookup(
    std::uint32_t path_id) const {
  const std::span<const std::uint64_t> run = members(path_id);
  if (run.size() > 1) {
    // Decompressing an ambiguous id to an arbitrary survivor would feed
    // the analyzer a wrong switch sequence; refuse and count instead.
    ambiguous_lookups_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  if (run.empty()) return {};
  return path_switches(index_of(run.front()));
}

void PathRegistry::log_audit(obs::EventLog& log, sim::Time at) const {
  log.log(obs::LogLevel::kInfo, at, "pathid", "audit",
          {{"paths", std::uint64_t{audit_.path_count}},
           {"hops", std::uint64_t{audit_.hop_count}},
           {"hash", telemetry::hash_name(config_.hash)},
           {"width_bits", std::uint64_t{config_.width_bits}},
           {"initial_collisions", std::uint64_t{audit_.initial_collisions}},
           {"mat_entries", std::uint64_t{audit_.mat_entries}},
           {"rounds", std::uint64_t{static_cast<std::uint64_t>(audit_.rounds)}},
           {"conflict_free", std::uint64_t{audit_.conflict_free ? 1u : 0u}}});
  if (!audit_.conflict_free) {
    log.log(obs::LogLevel::kError, at, "pathid", "unresolved_collisions",
            {{"residual_collisions",
              std::uint64_t{audit_.residual_collisions}},
             {"ambiguous_ids", std::uint64_t{audit_.ambiguous_ids}},
             {"pigeonhole_infeasible",
              std::uint64_t{audit_.pigeonhole_infeasible ? 1u : 0u}},
             {"rounds",
              std::uint64_t{static_cast<std::uint64_t>(audit_.rounds)}}});
  }
}

}  // namespace mars::control
