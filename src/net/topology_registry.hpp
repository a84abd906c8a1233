#pragma once
// Registry-driven topology construction: scenarios pick a fabric by NAME
// plus parameters instead of hard-wiring build_fat_tree at the call site.
//
// A TopologySpec is the declarative description (serializable to/from the
// ScenarioSpec JSON); a builder turns it into a BuiltFabric — the topology
// plus the role metadata every layer above needs (which switches source
// and sink traffic, how many pods the traffic matrix should honour).
// Builders for "fat-tree" and "leaf-spine" are registered at startup;
// new fabrics register themselves the same way without touching the
// scenario engine.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/topology.hpp"

namespace mars::net {

/// Declarative fabric description. Only the fields relevant to the named
/// builder are read (e.g. `k` for fat-tree, `leaves`/`spines` for
/// leaf-spine); the rest travel inert so one spec type covers every shape.
struct TopologySpec {
  std::string name = "fat-tree";  ///< registry key
  int k = 4;                      ///< fat-tree arity (even, >= 4)
  int leaves = 8, spines = 4;     ///< leaf-spine shape
  /// Link rates in Gbps: `edge_gbps` for edge-layer links (edge<->agg,
  /// leaf<->spine), `core_gbps` for core-layer links (agg<->core).
  double edge_gbps = 10.0;
  double core_gbps = 10.0;
  sim::Time propagation = 1'000;  ///< per-link propagation delay (ns)

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// A built fabric plus the role metadata the scenario layers need.
struct BuiltFabric {
  Topology topology;
  std::vector<SwitchId> edge;  ///< traffic sources/sinks, pod-major order
  std::vector<SwitchId> core;  ///< core layer (informational)
  /// Pod count for TrafficGenerator::add_background's inter-pod fraction
  /// (1 = no pod structure; all flows draw from one pool).
  int pods = 1;
};

class TopologyRegistry {
 public:
  using Builder = std::function<BuiltFabric(const TopologySpec&)>;
  /// Returns spec errors ("" prefix-free sentences); empty means valid.
  using Validator = std::function<std::vector<std::string>(const TopologySpec&)>;

  /// Process-wide registry, pre-populated with "fat-tree" and
  /// "leaf-spine".
  [[nodiscard]] static TopologyRegistry& instance();

  void add(std::string name, Builder builder, Validator validator = nullptr);

  /// Registered names, registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Spec problems for the named builder; includes "unknown topology" when
  /// the name is not registered. Empty result means build() will succeed.
  [[nodiscard]] std::vector<std::string> validate(
      const TopologySpec& spec) const;

  /// Build the named fabric. Throws std::invalid_argument carrying the
  /// validate() errors if the spec is rejected.
  [[nodiscard]] BuiltFabric build(const TopologySpec& spec) const;

 private:
  struct Entry {
    std::string name;
    Builder builder;
    Validator validator;
  };
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;
};

}  // namespace mars::net
