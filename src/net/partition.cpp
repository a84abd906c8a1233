#include "net/partition.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace mars::net {

namespace {

/// Connected components of the topology minus its core layer; core
/// switches come back as singleton components. Components are labelled
/// densely; each switch's label is returned, plus the member lists.
struct Components {
  std::vector<int> label;                       // per switch
  std::vector<std::vector<SwitchId>> members;   // per component, id order
};

Components find_components(const Topology& topology) {
  const auto n = topology.switch_count();
  Components out;
  out.label.assign(n, -1);
  std::vector<SwitchId> stack;
  for (SwitchId seed = 0; seed < n; ++seed) {
    if (out.label[seed] >= 0) continue;
    const int comp = static_cast<int>(out.members.size());
    out.members.emplace_back();
    out.label[seed] = comp;
    out.members[comp].push_back(seed);
    if (topology.layer(seed) == Layer::kCore) continue;  // singleton
    stack.assign(1, seed);
    while (!stack.empty()) {
      const SwitchId sw = stack.back();
      stack.pop_back();
      for (PortId p = 0; p < topology.port_count(sw); ++p) {
        const SwitchId next = topology.peer(sw, p).neighbor;
        if (out.label[next] >= 0) continue;
        if (topology.layer(next) == Layer::kCore) continue;
        out.label[next] = comp;
        out.members[comp].push_back(next);
        stack.push_back(next);
      }
    }
    std::sort(out.members[comp].begin(), out.members[comp].end());
  }
  return out;
}

}  // namespace

int partition_capacity(const Topology& topology) {
  return static_cast<int>(find_components(topology).members.size());
}

Partition partition_topology(const Topology& topology, int shards) {
  assert(shards >= 1);
  const Components comps = find_components(topology);
  assert(shards <= static_cast<int>(comps.members.size()));

  // Largest components first (ties by smallest member id) onto the
  // least-loaded shard (ties to the lowest index): deterministic and
  // balanced enough that pods spread evenly for any shard count that
  // divides the pod count.
  std::vector<std::size_t> order(comps.members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (comps.members[a].size() != comps.members[b].size()) {
      return comps.members[a].size() > comps.members[b].size();
    }
    return comps.members[a].front() < comps.members[b].front();
  });

  Partition partition;
  partition.shards = shards;
  partition.shard_of.assign(topology.switch_count(), 0);
  std::vector<std::size_t> load(static_cast<std::size_t>(shards), 0);
  for (const std::size_t comp : order) {
    const auto lightest = static_cast<std::size_t>(std::distance(
        load.begin(), std::min_element(load.begin(), load.end())));
    load[lightest] += comps.members[comp].size();
    for (const SwitchId sw : comps.members[comp]) {
      partition.shard_of[sw] = static_cast<int>(lightest);
    }
  }

  partition.min_boundary_propagation = std::numeric_limits<sim::Time>::max();
  for (std::size_t i = 0; i < topology.links().size(); ++i) {
    const Link& link = topology.links()[i];
    if (partition.shard_of[link.a.sw] == partition.shard_of[link.b.sw]) {
      continue;
    }
    partition.boundary_links.push_back(i);
    partition.min_boundary_propagation =
        std::min(partition.min_boundary_propagation, link.propagation);
  }
  if (partition.boundary_links.empty()) {
    partition.min_boundary_propagation = 0;
  }
  return partition;
}

}  // namespace mars::net
