#pragma once
// Shortest-path routing with ECMP groups.
//
// For every (switch, destination edge switch) pair we precompute the set of
// ports that lie on a shortest path, each with a weight. Equal weights give
// the paper's baseline 1:1 ECMP; the imbalance fault rewrites weights
// (§5.2: ratios 1:4 .. 1:10). Path enumeration feeds the control plane's
// PathID registry (§4.1).

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace mars::net {

/// One ECMP next-hop alternative.
struct EcmpMember {
  PortId port = 0;
  std::uint32_t weight = 1;
};

/// The ECMP group a switch uses towards one destination.
struct EcmpGroup {
  std::vector<EcmpMember> members;

  [[nodiscard]] std::uint32_t total_weight() const {
    std::uint32_t sum = 0;
    for (const auto& m : members) sum += m.weight;
    return sum;
  }
};

/// A switch-level path: the ordered switch ids a packet traverses,
/// source and sink inclusive.
using SwitchPath = std::vector<SwitchId>;

class RoutingTable {
 public:
  /// Builds shortest-path ECMP state for every destination switch.
  explicit RoutingTable(const Topology& topology);

  /// Group of candidate egress ports at `at` towards `dst`.
  /// Empty when dst is unreachable or dst == at.
  [[nodiscard]] const EcmpGroup& group(SwitchId at, SwitchId dst) const {
    return groups_[index(at, dst)];
  }

  /// Mutable access so faults can rewrite ECMP weights.
  [[nodiscard]] EcmpGroup& mutable_group(SwitchId at, SwitchId dst) {
    return groups_[index(at, dst)];
  }

  /// Pick the egress port for a flow by weighted hash. Deterministic in
  /// (flow_hash, at). Returns false if no route exists.
  [[nodiscard]] bool select_port(SwitchId at, SwitchId dst,
                                 std::uint32_t flow_hash, PortId& out) const;

  /// Hop distance (switch count minus one); -1 when unreachable.
  [[nodiscard]] int distance(SwitchId from, SwitchId to) const {
    return dist_[index(from, to)];
  }

  /// Enumerate every shortest switch-level path from `src` to `dst`
  /// (source and sink inclusive).
  [[nodiscard]] std::vector<SwitchPath> enumerate_paths(SwitchId src,
                                                        SwitchId dst) const;

  /// All shortest paths between every ordered pair of edge switches:
  /// sources, then destinations, in edge-layer order, ECMP alternatives
  /// in port order. The PathID registry enumerates in the same order.
  [[nodiscard]] std::vector<SwitchPath> enumerate_edge_paths() const;

 private:
  [[nodiscard]] std::size_t index(SwitchId at, SwitchId dst) const {
    return static_cast<std::size_t>(at) * n_ + dst;
  }

  const Topology* topology_;
  std::size_t n_;
  std::vector<int> dist_;          // n x n hop distances
  std::vector<EcmpGroup> groups_;  // n x n next-hop groups
};

}  // namespace mars::net
