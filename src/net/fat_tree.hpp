#pragma once
// K-ary fat-tree builder (the paper evaluates on a K=4 fat-tree, Fig. 6).
//
// Layout for even K:
//   - K pods, each with K/2 edge switches and K/2 aggregation switches;
//   - (K/2)^2 core switches;
//   - every edge switch connects to every aggregation switch in its pod;
//   - aggregation switch j of each pod connects to core switches
//     [j*K/2, (j+1)*K/2).
// Edge switches act as MARS source/sink switches (hosts are implicit).

#include <vector>

#include "net/topology.hpp"

namespace mars::net {

struct FatTreeConfig {
  int k = 4;                      ///< arity; must be even and >= 2
  double edge_agg_gbps = 10.0;    ///< edge<->aggregation link rate
  double agg_core_gbps = 10.0;    ///< aggregation<->core link rate
  sim::Time propagation = 1'000;  ///< per-link propagation delay (ns)
};

struct FatTree {
  Topology topology;
  std::vector<SwitchId> edge;  ///< pod-major order
  std::vector<SwitchId> agg;   ///< pod-major order
  std::vector<SwitchId> core;
};

/// Build a fat-tree. Asserts on invalid K.
[[nodiscard]] FatTree build_fat_tree(const FatTreeConfig& config);

}  // namespace mars::net
