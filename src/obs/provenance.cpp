#include "obs/provenance.hpp"

#include <algorithm>
#include <utility>

#include "obs/json_writer.hpp"

namespace mars::obs {

const char* ProvenanceGraph::kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kFault: return "fault";
    case NodeKind::kNotification: return "notification";
    case NodeKind::kSession: return "session";
    case NodeKind::kEpoch: return "epoch";
    case NodeKind::kPattern: return "pattern";
    case NodeKind::kSuspect: return "suspect";
    case NodeKind::kRegistry: return "registry";
  }
  return "?";
}

std::string ProvenanceGraph::add_node(NodeKind kind, SpanArgs fields) {
  const std::size_t slot = static_cast<std::size_t>(kind);
  std::string id = std::string(kind_name(kind)) + ":" +
                   std::to_string(next_id_[slot]++);
  Node node;
  node.id = id;
  node.kind = kind;
  node.fields = std::move(fields);
  index_[id] = nodes_.size();
  nodes_.push_back(std::move(node));
  return id;
}

void ProvenanceGraph::add_edge(std::string from, std::string to,
                               std::string relation) {
  edges_.push_back(Edge{std::move(from), std::move(to), std::move(relation)});
}

void ProvenanceGraph::annotate(const std::string& id, SpanArg field) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  SpanArgs& fields = nodes_[it->second].fields;
  for (SpanArg& existing : fields) {
    if (existing.key == field.key) {
      existing = std::move(field);
      return;
    }
  }
  fields.push_back(std::move(field));
}

std::vector<std::string> ProvenanceGraph::find_nodes(
    NodeKind kind, std::string_view field_key, std::string_view value) const {
  std::vector<std::string> out;
  for (const Node& node : nodes_) {
    if (node.kind != kind) continue;
    for (const SpanArg& field : node.fields) {
      if (!field.is_number && field.key == field_key && field.text == value) {
        out.push_back(node.id);
        break;
      }
    }
  }
  return out;
}

void ProvenanceGraph::clear() {
  nodes_.clear();
  edges_.clear();
  index_.clear();
  next_id_.fill(0);
}

void ProvenanceGraph::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("nodes").begin_array();
  for (const Node& node : nodes_) {
    w.begin_object();
    w.member("id", node.id);
    w.member("kind", kind_name(node.kind));
    w.key("fields").begin_object();
    for (const SpanArg& field : node.fields) {
      if (field.is_number) {
        w.member(field.key, field.number);
      } else {
        w.member(field.key, field.text);
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("edges").begin_array();
  for (const Edge& edge : edges_) {
    w.begin_object();
    w.member("from", edge.from);
    w.member("to", edge.to);
    w.member("relation", edge.relation);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void ProvenanceGraph::write_json(std::ostream& out, int indent) const {
  JsonWriter w(out, indent);
  write_json(w);
  out << "\n";
}

}  // namespace mars::obs
