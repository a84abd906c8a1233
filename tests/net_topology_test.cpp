#include "net/fat_tree.hpp"
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mars::net {
namespace {

TEST(TopologyTest, LinkAssignsDensePorts) {
  Topology t;
  const auto a = t.add_switch(Layer::kEdge);
  const auto b = t.add_switch(Layer::kAggregation);
  const auto c = t.add_switch(Layer::kCore);
  t.add_link(a, b);
  t.add_link(a, c);
  t.add_link(b, c);
  EXPECT_EQ(t.port_count(a), 2u);
  EXPECT_EQ(t.port_count(b), 2u);
  EXPECT_EQ(t.port_count(c), 2u);
  EXPECT_EQ(t.peer(a, 0).neighbor, b);
  EXPECT_EQ(t.peer(a, 1).neighbor, c);
  // Symmetric: the peer's peer is us.
  const auto& p = t.peer(a, 0);
  EXPECT_EQ(t.peer(p.neighbor, p.neighbor_port).neighbor, a);
}

TEST(TopologyTest, PortTowards) {
  Topology t;
  const auto a = t.add_switch(Layer::kEdge);
  const auto b = t.add_switch(Layer::kEdge);
  const auto c = t.add_switch(Layer::kEdge);
  t.add_link(a, b);
  EXPECT_TRUE(t.port_towards(a, b).has_value());
  EXPECT_FALSE(t.port_towards(a, c).has_value());
}

TEST(TopologyTest, LayerQueries) {
  Topology t;
  t.add_switch(Layer::kEdge);
  t.add_switch(Layer::kCore);
  t.add_switch(Layer::kEdge);
  EXPECT_EQ(t.switches_in_layer(Layer::kEdge).size(), 2u);
  EXPECT_EQ(t.switches_in_layer(Layer::kCore).size(), 1u);
  EXPECT_EQ(t.switches_in_layer(Layer::kAggregation).size(), 0u);
}

class FatTreeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeParamTest, StructuralInvariants) {
  const int k = GetParam();
  const int half = k / 2;
  const auto ft = build_fat_tree({.k = k});
  // Switch counts: k pods * (k/2 edge + k/2 agg) + (k/2)^2 core.
  EXPECT_EQ(ft.edge.size(), static_cast<std::size_t>(k * half));
  EXPECT_EQ(ft.agg.size(), static_cast<std::size_t>(k * half));
  EXPECT_EQ(ft.core.size(), static_cast<std::size_t>(half * half));
  EXPECT_EQ(ft.topology.switch_count(),
            ft.edge.size() + ft.agg.size() + ft.core.size());
  // Link count: every edge connects to k/2 aggs, every agg to k/2 cores.
  EXPECT_EQ(ft.topology.link_count(),
            static_cast<std::size_t>(k * half * half * 2));
  // Degree checks.
  for (const auto sw : ft.edge) {
    EXPECT_EQ(ft.topology.port_count(sw), static_cast<std::size_t>(half));
    EXPECT_EQ(ft.topology.layer(sw), Layer::kEdge);
  }
  for (const auto sw : ft.agg) {
    EXPECT_EQ(ft.topology.port_count(sw), static_cast<std::size_t>(k));
    EXPECT_EQ(ft.topology.layer(sw), Layer::kAggregation);
  }
  for (const auto sw : ft.core) {
    EXPECT_EQ(ft.topology.port_count(sw), static_cast<std::size_t>(k));
    EXPECT_EQ(ft.topology.layer(sw), Layer::kCore);
  }
}

TEST_P(FatTreeParamTest, EdgeOnlyTouchesAggInOwnPod) {
  const int k = GetParam();
  const int half = k / 2;
  const auto ft = build_fat_tree({.k = k});
  for (std::size_t e = 0; e < ft.edge.size(); ++e) {
    const int pod = static_cast<int>(e) / half;
    std::set<SwitchId> peers;
    for (PortId p = 0; p < ft.topology.port_count(ft.edge[e]); ++p) {
      peers.insert(ft.topology.peer(ft.edge[e], p).neighbor);
    }
    std::set<SwitchId> expected;
    for (int j = 0; j < half; ++j) {
      expected.insert(ft.agg[static_cast<std::size_t>(pod * half + j)]);
    }
    EXPECT_EQ(peers, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, FatTreeParamTest,
                         ::testing::Values(2, 4, 6, 8));

TEST(FatTreeTest, K4MatchesPaperScale) {
  // Paper §5.5: in a K=4 fat-tree there are 8 edge switches.
  const auto ft = build_fat_tree({.k = 4});
  EXPECT_EQ(ft.edge.size(), 8u);
  EXPECT_EQ(ft.agg.size(), 8u);
  EXPECT_EQ(ft.core.size(), 4u);
  EXPECT_EQ(ft.topology.switch_count(), 20u);
}

}  // namespace
}  // namespace mars::net
