#include "net/topology.hpp"

#include <cassert>

namespace mars::net {

SwitchId Topology::add_switch(Layer layer) {
  const auto id = static_cast<SwitchId>(layers_.size());
  layers_.push_back(layer);
  ports_.emplace_back();
  return id;
}

std::size_t Topology::add_link(SwitchId a, SwitchId b, double gbps,
                               sim::Time propagation) {
  assert(a < switch_count() && b < switch_count() && a != b);
  const auto a_port = static_cast<PortId>(ports_[a].size());
  const auto b_port = static_cast<PortId>(ports_[b].size());
  const std::size_t index = links_.size();
  links_.push_back(Link{{a, a_port}, {b, b_port}, gbps, propagation});
  ports_[a].push_back(PortPeer{b, b_port, index});
  ports_[b].push_back(PortPeer{a, a_port, index});
  return index;
}

std::optional<PortId> Topology::port_towards(SwitchId sw,
                                             SwitchId neighbor) const {
  for (PortId p = 0; p < ports_[sw].size(); ++p) {
    if (ports_[sw][p].neighbor == neighbor) return p;
  }
  return std::nullopt;
}

std::vector<SwitchId> Topology::switches_in_layer(Layer layer) const {
  std::vector<SwitchId> out;
  for (SwitchId sw = 0; sw < layers_.size(); ++sw) {
    if (layers_[sw] == layer) out.push_back(sw);
  }
  return out;
}

std::uint64_t structural_fingerprint(const Topology& topology) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ (v & 0xFF)) * kPrime;
      v >>= 8;
    }
  };
  mix(topology.switch_count());
  for (SwitchId sw = 0; sw < topology.switch_count(); ++sw) {
    mix(static_cast<std::uint64_t>(topology.layer(sw)));
    mix(topology.port_count(sw));
    for (PortId p = 0; p < topology.port_count(sw); ++p) {
      const auto& peer = topology.peer(sw, p);
      mix(peer.neighbor);
      mix(peer.neighbor_port);
    }
  }
  return h;
}

}  // namespace mars::net
