#pragma once
// Test-side queries over a ProvenanceGraph's public nodes()/edges(): node
// lookup, per-kind listing, the closure check and forward reachability
// that the provenance tests assert on.

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "obs/provenance.hpp"

namespace mars::test_support {

using ProvenanceNode = obs::ProvenanceGraph::Node;
using ProvenanceKind = obs::ProvenanceGraph::NodeKind;

/// The node with `id`, or null.
inline const ProvenanceNode* find_node(const obs::ProvenanceGraph& g,
                                       const std::string& id) {
  for (const ProvenanceNode& node : g.nodes()) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

/// Every node of `kind`, in insertion order.
inline std::vector<const ProvenanceNode*> nodes_of(
    const obs::ProvenanceGraph& g, ProvenanceKind kind) {
  std::vector<const ProvenanceNode*> out;
  for (const ProvenanceNode& node : g.nodes()) {
    if (node.kind == kind) out.push_back(&node);
  }
  return out;
}

/// Structural check: every edge endpoint resolves to a node. Returns one
/// message per dangling reference (empty = closed).
inline std::vector<std::string> validate(const obs::ProvenanceGraph& g) {
  std::set<std::string> ids;
  for (const ProvenanceNode& node : g.nodes()) ids.insert(node.id);
  std::vector<std::string> errors;
  for (const auto& edge : g.edges()) {
    const std::string where =
        "edge " + edge.from + " -[" + edge.relation + "]-> " + edge.to;
    if (ids.count(edge.from) == 0) {
      errors.push_back(where + ": unknown source node");
    }
    if (ids.count(edge.to) == 0) {
      errors.push_back(where + ": unknown target node");
    }
  }
  return errors;
}

/// Ids reachable (forward, including the seeds) from every node of
/// `from`, in node insertion order.
inline std::vector<std::string> reachable_from(const obs::ProvenanceGraph& g,
                                               ProvenanceKind from) {
  std::set<std::string> seen;
  std::deque<std::string> frontier;
  for (const ProvenanceNode& node : g.nodes()) {
    if (node.kind == from && seen.insert(node.id).second) {
      frontier.push_back(node.id);
    }
  }
  while (!frontier.empty()) {
    const std::string id = std::move(frontier.front());
    frontier.pop_front();
    for (const auto& edge : g.edges()) {
      if (edge.from == id && seen.insert(edge.to).second) {
        frontier.push_back(edge.to);
      }
    }
  }
  std::vector<std::string> out;
  for (const ProvenanceNode& node : g.nodes()) {
    if (seen.count(node.id) > 0) out.push_back(node.id);
  }
  return out;
}

}  // namespace mars::test_support
