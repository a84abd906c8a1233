#include "net/leaf_spine.hpp"

#include <gtest/gtest.h>

#include "control/path_registry.hpp"
#include "net/engine.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "path_recorder.hpp"

namespace mars::net {
namespace {

class LeafSpineParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LeafSpineParamTest, StructuralInvariants) {
  const auto [leaves, spines] = GetParam();
  const auto ls = build_leaf_spine({.leaves = leaves, .spines = spines});
  EXPECT_EQ(ls.leaf.size(), static_cast<std::size_t>(leaves));
  EXPECT_EQ(ls.spine.size(), static_cast<std::size_t>(spines));
  EXPECT_EQ(ls.topology.link_count(),
            static_cast<std::size_t>(leaves * spines));
  for (const auto leaf : ls.leaf) {
    EXPECT_EQ(ls.topology.port_count(leaf),
              static_cast<std::size_t>(spines));
    EXPECT_EQ(ls.topology.layer(leaf), Layer::kEdge);
  }
  for (const auto spine : ls.spine) {
    EXPECT_EQ(ls.topology.port_count(spine),
              static_cast<std::size_t>(leaves));
    EXPECT_EQ(ls.topology.layer(spine), Layer::kCore);
  }
}

TEST_P(LeafSpineParamTest, EveryLeafPairHasSpinesPaths) {
  const auto [leaves, spines] = GetParam();
  const auto ls = build_leaf_spine({.leaves = leaves, .spines = spines});
  const RoutingTable routing(ls.topology);
  EXPECT_EQ(routing.distance(ls.leaf[0], ls.leaf[1]), 2);
  const auto paths = routing.enumerate_paths(ls.leaf[0], ls.leaf[1]);
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(spines));
  EXPECT_EQ(routing.group(ls.leaf[0], ls.leaf[1]).members.size(),
            static_cast<std::size_t>(spines));
}

INSTANTIATE_TEST_SUITE_P(Shapes, LeafSpineParamTest,
                         ::testing::Values(std::pair{2, 1}, std::pair{4, 2},
                                           std::pair{8, 4},
                                           std::pair{16, 8}));

TEST(LeafSpineTest, PathRegistryResolvesUniqueIds) {
  // MARS's control plane works unchanged on the second fabric shape.
  const auto ls = build_leaf_spine({.leaves = 8, .spines = 4});
  const RoutingTable routing(ls.topology);
  const control::PathRegistry registry(ls.topology, routing, {});
  // 8*7 ordered pairs x 4 spine choices.
  EXPECT_EQ(registry.path_count(), 8u * 7u * 4u);
  EXPECT_TRUE(registry.conflict_free());
}

TEST(LeafSpineTest, TrafficFlowsEndToEnd) {
  const auto ls = build_leaf_spine({.leaves = 4, .spines = 2});
  Engine engine{ls.topology};
  Network& net = engine.network();
  test_support::PathRecorder paths;
  net.add_observer(paths);
  int delivered = 0;
  net.set_delivery_callback(
      [&](const Packet& p, sim::Time) {
        ++delivered;
        EXPECT_EQ(paths.path_of(p).size(), 3u);  // leaf-spine-leaf
      });
  for (std::uint32_t h = 0; h < 20; ++h) {
    net.inject({ls.leaf[0], ls.leaf[3]}, h * 2654435761u, 700);
  }
  engine.run();
  EXPECT_EQ(delivered, 20);
}

}  // namespace
}  // namespace mars::net
