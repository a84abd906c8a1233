#include "net/routing.hpp"

#include <cassert>
#include <deque>

#include "util/crc.hpp"

namespace mars::net {

RoutingTable::RoutingTable(const Topology& topology)
    : topology_(&topology), n_(topology.switch_count()) {
  dist_.assign(n_ * n_, -1);
  groups_.resize(n_ * n_);

  // BFS from every destination over the reversed (symmetric) graph gives
  // hop distances; a port is an ECMP member when its neighbor is one hop
  // closer to the destination.
  for (SwitchId dst = 0; dst < n_; ++dst) {
    std::deque<SwitchId> frontier{dst};
    dist_[index(dst, dst)] = 0;
    while (!frontier.empty()) {
      const SwitchId cur = frontier.front();
      frontier.pop_front();
      const int d = dist_[index(cur, dst)];
      for (PortId p = 0; p < topology.port_count(cur); ++p) {
        const SwitchId nb = topology.peer(cur, p).neighbor;
        if (dist_[index(nb, dst)] == -1) {
          dist_[index(nb, dst)] = d + 1;
          frontier.push_back(nb);
        }
      }
    }
    for (SwitchId at = 0; at < n_; ++at) {
      if (at == dst || dist_[index(at, dst)] == -1) continue;
      EcmpGroup& group = groups_[index(at, dst)];
      for (PortId p = 0; p < topology.port_count(at); ++p) {
        const SwitchId nb = topology.peer(at, p).neighbor;
        if (dist_[index(nb, dst)] == dist_[index(at, dst)] - 1) {
          group.members.push_back(EcmpMember{p, 1});
        }
      }
    }
  }
}

bool RoutingTable::select_port(SwitchId at, SwitchId dst,
                               std::uint32_t flow_hash, PortId& out) const {
  const EcmpGroup& g = group(at, dst);
  if (g.members.empty()) return false;
  const std::uint32_t total = g.total_weight();
  assert(total > 0);
  // Hash {flow, switch} so different switches decorrelate their choices —
  // this is the "imperfect hash" a real ECMP deployment uses.
  const std::uint32_t h = util::crc32_words<2>({flow_hash, at});
  std::uint32_t r = h % total;
  for (const auto& m : g.members) {
    if (r < m.weight) {
      out = m.port;
      return true;
    }
    r -= m.weight;
  }
  out = g.members.back().port;  // unreachable with consistent weights
  return true;
}

std::vector<SwitchPath> RoutingTable::enumerate_paths(SwitchId src,
                                                      SwitchId dst) const {
  std::vector<SwitchPath> result;
  if (dist_[index(src, dst)] == -1) return result;
  SwitchPath stack{src};
  // DFS restricted to shortest-path DAG edges.
  auto dfs = [&](auto&& self, SwitchId cur) -> void {
    if (cur == dst) {
      result.push_back(stack);
      return;
    }
    for (PortId p = 0; p < topology_->port_count(cur); ++p) {
      const SwitchId nb = topology_->peer(cur, p).neighbor;
      if (dist_[index(nb, dst)] == dist_[index(cur, dst)] - 1) {
        stack.push_back(nb);
        self(self, nb);
        stack.pop_back();
      }
    }
  };
  dfs(dfs, src);
  return result;
}

std::vector<SwitchPath> RoutingTable::enumerate_edge_paths() const {
  const std::vector<SwitchId> edges =
      topology_->switches_in_layer(Layer::kEdge);
  std::vector<SwitchPath> all;
  for (const SwitchId src : edges) {
    for (const SwitchId dst : edges) {
      if (src == dst) continue;
      auto paths = enumerate_paths(src, dst);
      all.insert(all.end(), std::make_move_iterator(paths.begin()),
                 std::make_move_iterator(paths.end()));
    }
  }
  return all;
}

}  // namespace mars::net
