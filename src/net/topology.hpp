#pragma once
// Static network topology: switches, layers, and point-to-point links.
//
// The topology is immutable once built; runtime state (queues, rates,
// faults) lives in net::Switch / net::Network.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace mars::net {

/// One direction of a physical cable: (switch, port) -> (switch, port).
struct LinkEnd {
  SwitchId sw = kInvalidSwitch;
  PortId port = 0;
};

struct Link {
  LinkEnd a;
  LinkEnd b;
  double gbps = 10.0;             ///< per-direction capacity (paper: 10 Gbps)
  sim::Time propagation = 1'000;  ///< one-way propagation delay (ns)
};

class Topology {
 public:
  /// Adds a switch and returns its dense id.
  SwitchId add_switch(Layer layer);

  /// Connects two switches with a bidirectional link; ports are assigned
  /// densely per switch. Returns the link index.
  std::size_t add_link(SwitchId a, SwitchId b, double gbps = 10.0,
                       sim::Time propagation = 1'000);

  [[nodiscard]] std::size_t switch_count() const { return layers_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] Layer layer(SwitchId sw) const { return layers_[sw]; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  /// Number of inter-switch ports on `sw`.
  [[nodiscard]] std::size_t port_count(SwitchId sw) const {
    return ports_[sw].size();
  }

  /// The (neighbor switch, neighbor port, link index) behind a local port.
  struct PortPeer {
    SwitchId neighbor = kInvalidSwitch;
    PortId neighbor_port = 0;
    std::size_t link = 0;
  };
  [[nodiscard]] const PortPeer& peer(SwitchId sw, PortId port) const {
    return ports_[sw][port];
  }

  /// Port on `sw` that faces `neighbor`, if directly connected.
  [[nodiscard]] std::optional<PortId> port_towards(SwitchId sw,
                                                   SwitchId neighbor) const;

  /// All switches of a given layer.
  [[nodiscard]] std::vector<SwitchId> switches_in_layer(Layer layer) const;

 private:
  std::vector<Layer> layers_;
  std::vector<Link> links_;
  std::vector<std::vector<PortPeer>> ports_;  // per switch, per port
};

/// FNV-1a hash of the structural graph: switch count, per-switch layer,
/// and per-port peer wiring. Two topologies with the same fingerprint
/// enumerate the same shortest paths, so it (plus the PathIdConfig) keys
/// the control plane's PathRegistry cache. Link capacities and delays are
/// deliberately excluded — path enumeration never reads them.
[[nodiscard]] std::uint64_t structural_fingerprint(const Topology& topology);

}  // namespace mars::net
