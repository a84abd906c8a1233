#include "net/topology_registry.hpp"

#include <stdexcept>

#include "net/fat_tree.hpp"
#include "net/leaf_spine.hpp"

namespace mars::net {

namespace {

std::vector<std::string> validate_fat_tree(const TopologySpec& spec) {
  std::vector<std::string> errors;
  if (spec.k < 4 || spec.k % 2 != 0) {
    errors.push_back("fat-tree arity k must be even and >= 4 (got " +
                     std::to_string(spec.k) + ")");
  }
  return errors;
}

BuiltFabric build_fat_tree_fabric(const TopologySpec& spec) {
  auto ft = build_fat_tree({.k = spec.k,
                            .edge_agg_gbps = spec.edge_gbps,
                            .agg_core_gbps = spec.core_gbps,
                            .propagation = spec.propagation});
  BuiltFabric fabric;
  fabric.topology = std::move(ft.topology);
  fabric.edge = std::move(ft.edge);
  fabric.core = std::move(ft.core);
  fabric.pods = spec.k;
  return fabric;
}

std::vector<std::string> validate_leaf_spine(const TopologySpec& spec) {
  std::vector<std::string> errors;
  if (spec.leaves < 2) {
    errors.push_back("leaf-spine needs at least 2 leaves (got " +
                     std::to_string(spec.leaves) + ")");
  }
  if (spec.spines < 1) {
    errors.push_back("leaf-spine needs at least 1 spine (got " +
                     std::to_string(spec.spines) + ")");
  }
  return errors;
}

BuiltFabric build_leaf_spine_fabric(const TopologySpec& spec) {
  auto ls = build_leaf_spine({.leaves = spec.leaves,
                              .spines = spec.spines,
                              .leaf_spine_gbps = spec.edge_gbps,
                              .propagation = spec.propagation});
  BuiltFabric fabric;
  fabric.topology = std::move(ls.topology);
  fabric.edge = std::move(ls.leaf);
  fabric.core = std::move(ls.spine);
  fabric.pods = 1;  // full mesh: no pod structure to honour
  return fabric;
}

std::vector<std::string> validate_common(const TopologySpec& spec) {
  std::vector<std::string> errors;
  if (spec.edge_gbps <= 0.0) {
    errors.push_back("edge link rate must be positive (got " +
                     std::to_string(spec.edge_gbps) + " Gbps)");
  }
  if (spec.core_gbps <= 0.0) {
    errors.push_back("core link rate must be positive (got " +
                     std::to_string(spec.core_gbps) + " Gbps)");
  }
  if (spec.propagation < 0) {
    errors.push_back("propagation delay must be non-negative");
  }
  return errors;
}

/// "fat-tree-16": the datacenter-scale fabric (320 switches, 16 pods)
/// used by the sharded-simulation scale benchmarks. The spec's `k` is
/// ignored — the name pins the arity, so scenario files can request the
/// big fabric without knowing fat-tree arithmetic.
BuiltFabric build_fat_tree_16_fabric(const TopologySpec& spec) {
  TopologySpec fixed = spec;
  fixed.k = 16;
  return build_fat_tree_fabric(fixed);
}

}  // namespace

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry registry = [] {
    TopologyRegistry r;
    r.add("fat-tree", build_fat_tree_fabric, validate_fat_tree);
    r.add("fat-tree-16", build_fat_tree_16_fabric, nullptr);
    r.add("leaf-spine", build_leaf_spine_fabric, validate_leaf_spine);
    return r;
  }();
  return registry;
}

void TopologyRegistry::add(std::string name, Builder builder,
                           Validator validator) {
  for (auto& entry : entries_) {
    if (entry.name == name) {  // re-registration replaces
      entry.builder = std::move(builder);
      entry.validator = std::move(validator);
      return;
    }
  }
  entries_.push_back(
      Entry{std::move(name), std::move(builder), std::move(validator)});
}

const TopologyRegistry::Entry* TopologyRegistry::find(
    std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> TopologyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.name);
  return out;
}

std::vector<std::string> TopologyRegistry::validate(
    const TopologySpec& spec) const {
  const Entry* entry = find(spec.name);
  if (entry == nullptr) {
    std::string known;
    for (const auto& e : entries_) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    return {"unknown topology '" + spec.name + "' (known: " + known + ")"};
  }
  std::vector<std::string> errors = validate_common(spec);
  if (entry->validator) {
    auto extra = entry->validator(spec);
    errors.insert(errors.end(), extra.begin(), extra.end());
  }
  return errors;
}

BuiltFabric TopologyRegistry::build(const TopologySpec& spec) const {
  const auto errors = validate(spec);
  if (!errors.empty()) {
    std::string joined;
    for (const auto& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    throw std::invalid_argument("topology spec invalid: " + joined);
  }
  return find(spec.name)->builder(spec);
}

}  // namespace mars::net
