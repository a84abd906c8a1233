// ProvenanceGraph: id assignment, annotation, field-joined lookup,
// structural validation, forward reachability, and the JSON export shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_reader.hpp"
#include "obs/provenance.hpp"
#include "provenance_queries.hpp"

namespace mars::obs {
namespace {

using NodeKind = ProvenanceGraph::NodeKind;
using test_support::find_node;
using test_support::nodes_of;
using test_support::reachable_from;
using test_support::validate;

TEST(ProvenanceTest, NodeIdsArePerKindSequences) {
  ProvenanceGraph g;
  EXPECT_EQ(g.add_node(NodeKind::kFault), "fault:0");
  EXPECT_EQ(g.add_node(NodeKind::kSuspect), "suspect:0");
  EXPECT_EQ(g.add_node(NodeKind::kFault), "fault:1");
  EXPECT_EQ(g.add_node(NodeKind::kPattern), "pattern:0");
  EXPECT_EQ(g.nodes().size(), 4u);

  ASSERT_NE(find_node(g, "fault:1"), nullptr);
  EXPECT_EQ(find_node(g, "fault:1")->kind, NodeKind::kFault);
  EXPECT_EQ(find_node(g, "fault:7"), nullptr);
  EXPECT_EQ(nodes_of(g, NodeKind::kFault).size(), 2u);
}

TEST(ProvenanceTest, AnnotateOverwritesSameKeyField) {
  ProvenanceGraph g;
  const std::string id =
      g.add_node(NodeKind::kSuspect, {{"key", "drop|switch|3"}});
  g.annotate(id, {"final_rank", std::int64_t{2}});
  g.annotate(id, {"final_rank", std::int64_t{1}});  // overwrite

  const ProvenanceGraph::Node* node = find_node(g, id);
  ASSERT_NE(node, nullptr);
  ASSERT_EQ(node->fields.size(), 2u);
  const auto it = std::find_if(
      node->fields.begin(), node->fields.end(),
      [](const SpanArg& a) { return a.key == "final_rank"; });
  ASSERT_NE(it, node->fields.end());
  EXPECT_DOUBLE_EQ(it->number, 1.0);
}

TEST(ProvenanceTest, FindNodesJoinsOnStringField) {
  ProvenanceGraph g;
  g.add_node(NodeKind::kSuspect, {{"key", "rate|switch|5"}});
  g.add_node(NodeKind::kSuspect, {{"key", "drop|port|2|p1"}});
  g.add_node(NodeKind::kSuspect, {{"key", "rate|switch|5"}});  // duplicate key
  g.add_node(NodeKind::kPattern, {{"key", "rate|switch|5"}});  // wrong kind

  const auto hits = g.find_nodes(NodeKind::kSuspect, "key", "rate|switch|5");
  EXPECT_EQ(hits, (std::vector<std::string>{"suspect:0", "suspect:2"}));
  EXPECT_TRUE(
      g.find_nodes(NodeKind::kSuspect, "key", "missing").empty());
}

TEST(ProvenanceTest, ValidateFlagsDanglingEdges) {
  ProvenanceGraph g;
  const std::string epoch = g.add_node(NodeKind::kEpoch);
  const std::string pattern = g.add_node(NodeKind::kPattern);
  g.add_edge(epoch, pattern, "mined");
  EXPECT_TRUE(validate(g).empty());

  g.add_edge(epoch, "suspect:9", "scored");  // never materialises
  const auto problems = validate(g);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("suspect:9"), std::string::npos);
}

TEST(ProvenanceTest, ReachableFromFollowsForwardEdges) {
  ProvenanceGraph g;
  const std::string epoch = g.add_node(NodeKind::kEpoch);
  const std::string p0 = g.add_node(NodeKind::kPattern);
  const std::string p1 = g.add_node(NodeKind::kPattern);  // orphan
  const std::string s0 = g.add_node(NodeKind::kSuspect);
  g.add_edge(epoch, p0, "mined");
  g.add_edge(p0, s0, "scored");

  const auto reached = reachable_from(g, NodeKind::kEpoch);
  EXPECT_NE(std::find(reached.begin(), reached.end(), s0), reached.end());
  EXPECT_NE(std::find(reached.begin(), reached.end(), epoch),
            reached.end());  // seeds included
  EXPECT_EQ(std::find(reached.begin(), reached.end(), p1), reached.end());
}

TEST(ProvenanceTest, ClearResetsIdCounters) {
  ProvenanceGraph g;
  g.add_node(NodeKind::kFault);
  g.add_edge("fault:0", "fault:0", "self");
  g.clear();
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.add_node(NodeKind::kFault), "fault:0");
}

TEST(ProvenanceTest, JsonExportRoundTripsThroughReader) {
  ProvenanceGraph g;
  const std::string fault = g.add_node(
      NodeKind::kFault, {{"kind", "rate"}, {"ts_s", 3.0}});
  const std::string suspect = g.add_node(
      NodeKind::kSuspect, {{"rank", std::int64_t{1}}, {"cause", "rate"}});
  g.add_edge(fault, suspect, "manifested_as");

  std::ostringstream out;
  g.write_json(out);
  const JsonValue doc = JsonValue::parse(out.str());

  const JsonValue& nodes = *doc.find("nodes");
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes.at(0).find("id")->as_string(), "fault:0");
  EXPECT_EQ(nodes.at(0).find("kind")->as_string(), "fault");
  EXPECT_EQ(nodes.at(0).find("fields")->find("kind")->as_string(), "rate");
  EXPECT_DOUBLE_EQ(
      nodes.at(0).find("fields")->find("ts_s")->as_number(), 3.0);

  const JsonValue& edges = *doc.find("edges");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.at(0).find("from")->as_string(), "fault:0");
  EXPECT_EQ(edges.at(0).find("to")->as_string(), "suspect:0");
  EXPECT_EQ(edges.at(0).find("relation")->as_string(), "manifested_as");
}

}  // namespace
}  // namespace mars::obs
