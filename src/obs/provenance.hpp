#pragma once
// Diagnosis provenance graph: a typed DAG explaining *why* each ranked
// suspect ranked where it did.
//
// Node kinds follow the diagnosis pipeline:
//   fault         — an injected fault-schedule event (ground truth)
//   notification  — the data-plane report that triggered collection
//   session       — one controller collection window + its quality
//   epoch         — an abnormal path group (path_id + classified epochs)
//   pattern       — a mined + SBFL-scored abnormal pattern
//   suspect       — one entry of the final ranked culprit list
//
// Edges point in causal/evidence order: notification -> session ->
// epoch -> pattern -> suspect, plus fault -> suspect attribution edges
// added after grading. The closure contract (tested per fault kind):
// every suspect is reachable from at least one abnormal epoch.
//
// The graph lives in obs and knows nothing about rca/control types —
// producers attach domain facts as SpanArg fields, and cross-layer joins
// go through string-valued fields (e.g. the canonical culprit key written
// by the analyzer and matched by the scenario runner). Node IDs are
// stable "<kind>:<index>" strings; the same IDs are attached to Perfetto
// spans ("prov" arg) so a trace viewer can join against the exported DAG.

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"  // SpanArg / SpanArgs double as node fields

namespace mars::obs {

class JsonWriter;

class ProvenanceGraph {
 public:
  enum class NodeKind : std::uint8_t {
    kFault = 0,
    kNotification = 1,
    kSession = 2,
    kEpoch = 3,
    kPattern = 4,
    kSuspect = 5,
    kRegistry = 6,  ///< PathID registry audit snapshot (one per deployment)
  };
  static constexpr std::size_t kNodeKinds = 7;

  [[nodiscard]] static const char* kind_name(NodeKind kind);

  struct Node {
    std::string id;  ///< "<kind>:<index>", stable for the graph's lifetime
    NodeKind kind = NodeKind::kFault;
    SpanArgs fields;
  };

  struct Edge {
    std::string from;
    std::string to;
    std::string relation;
  };

  /// Append a node; returns its id ("fault:0", "pattern:3", ...).
  std::string add_node(NodeKind kind, SpanArgs fields = {});
  /// Append an edge. Endpoints need not exist yet; the closure contract
  /// requires each to materialize before the graph is exported.
  void add_edge(std::string from, std::string to, std::string relation);
  /// Set a field on an existing node (overwrites a same-key field).
  void annotate(const std::string& id, SpanArg field);

  /// Node ids of `kind` whose string field `field_key` equals `value`.
  [[nodiscard]] std::vector<std::string> find_nodes(
      NodeKind kind, std::string_view field_key,
      std::string_view value) const;

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  void clear();

  /// {"nodes": [{"id", "kind", "fields"{...}}], "edges": [{"from", "to",
  /// "relation"}]}.
  void write_json(std::ostream& out, int indent = 2) const;
  void write_json(JsonWriter& w) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::map<std::string, std::size_t> index_;  // id -> nodes_ index
  std::array<std::uint32_t, kNodeKinds> next_id_{};
};

}  // namespace mars::obs
