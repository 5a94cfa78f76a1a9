#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "topology/generators.hpp"
#include "topology/graph.hpp"

namespace snap::topology {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(GraphTest, AddEdgeUpdatesAdjacency) {
  Graph g(3);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.neighbors(0), std::vector<NodeId>{2});
}

TEST(GraphTest, RejectsSelfLoopDuplicateAndOutOfRange) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 1), common::ContractViolation);
  EXPECT_THROW(g.add_edge(0, 1), common::ContractViolation);
  EXPECT_THROW(g.add_edge(1, 0), common::ContractViolation);
  EXPECT_THROW(g.add_edge(0, 3), common::ContractViolation);
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.neighbors(2), (std::vector<NodeId>{0, 3, 4}));
}

TEST(GraphTest, EdgesAreNormalized) {
  Graph g(3);
  g.add_edge(2, 1);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0], std::make_pair(NodeId{1}, NodeId{2}));
}

TEST(GraphTest, HopsOnLine) {
  const Graph g = make_line(4);  // 0-1-2-3
  const auto hops = g.hops_from(0);
  EXPECT_EQ(hops[0].value(), 0u);
  EXPECT_EQ(hops[1].value(), 1u);
  EXPECT_EQ(hops[3].value(), 3u);
}

TEST(GraphTest, HopsUnreachableIsNullopt) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto hops = g.hops_from(0);
  EXPECT_TRUE(hops[1].has_value());
  EXPECT_FALSE(hops[2].has_value());
  EXPECT_FALSE(g.is_connected());
}

TEST(GraphTest, AllPairsHopsSymmetric) {
  common::Rng rng(1);
  const Graph g = make_random_connected(12, 3.0, rng);
  const auto all = g.all_pairs_hops();
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = 0; v < 12; ++v) {
      EXPECT_EQ(all[u][v].value(), all[v][u].value());
    }
    EXPECT_EQ(all[u][u].value(), 0u);
  }
}

TEST(GraphTest, DiameterOfReferenceShapes) {
  EXPECT_EQ(make_complete(5).diameter(), 1u);
  EXPECT_EQ(make_line(6).diameter(), 5u);
  EXPECT_EQ(make_ring(6).diameter(), 3u);
  EXPECT_EQ(make_star(7).diameter(), 2u);
}

TEST(GraphTest, DiameterRequiresConnected) {
  Graph g(2);
  EXPECT_THROW(g.diameter(), common::ContractViolation);
}

TEST(GeneratorsTest, CompleteGraphShape) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 5u);
}

TEST(GeneratorsTest, RingShape) {
  const Graph g = make_ring(5);
  EXPECT_EQ(g.edge_count(), 5u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_THROW(make_ring(2), common::ContractViolation);
}

TEST(GeneratorsTest, LineAndStarShapes) {
  EXPECT_EQ(make_line(5).edge_count(), 4u);
  const Graph star = make_star(5);
  EXPECT_EQ(star.degree(0), 4u);
  EXPECT_EQ(star.degree(1), 1u);
}

TEST(GeneratorsTest, GridShape) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  // 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8.
  EXPECT_EQ(g.edge_count(), 17u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  common::Rng rng(5);
  EXPECT_EQ(make_erdos_renyi(6, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(make_erdos_renyi(6, 1.0, rng).edge_count(), 15u);
}

TEST(ComponentsTest, ConnectedGraphIsOneComponent) {
  const Graph g = make_ring(5);
  const ComponentMap map = connected_components(g);
  EXPECT_EQ(map.count, 1u);
  EXPECT_EQ(map.largest_size, 5u);
  EXPECT_DOUBLE_EQ(map.largest_fraction(), 1.0);
  for (const std::size_t l : map.label) EXPECT_EQ(l, 0u);
}

TEST(ComponentsTest, LabelsAreCanonicalByLowestNode) {
  // Two components: {0, 3} and {1, 2, 4}. Component 0 must contain
  // node 0; component 1 the lowest node outside it (node 1).
  Graph g(5);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.add_edge(2, 4);
  const ComponentMap map = connected_components(g);
  EXPECT_EQ(map.count, 2u);
  EXPECT_EQ(map.largest_size, 3u);
  EXPECT_EQ(map.label, (std::vector<std::size_t>{0, 1, 1, 0, 1}));
  EXPECT_TRUE(map.same_component(1, 4));
  EXPECT_FALSE(map.same_component(0, 4));
  EXPECT_DOUBLE_EQ(map.largest_fraction(), 3.0 / 5.0);
}

TEST(ComponentsTest, ExcludedNodesSplitTheGraph) {
  // A line 0-1-2-3-4 with node 2 excluded: {0, 1} and {3, 4}.
  const Graph g = make_line(5);
  std::vector<std::uint8_t> include{1, 1, 0, 1, 1};
  const ComponentMap map = connected_components(g, include);
  EXPECT_EQ(map.count, 2u);
  EXPECT_EQ(map.label[2], ComponentMap::kExcluded);
  EXPECT_EQ(map.label[0], map.label[1]);
  EXPECT_EQ(map.label[3], map.label[4]);
  EXPECT_NE(map.label[0], map.label[3]);
  EXPECT_FALSE(map.same_component(1, 3));
  // Fractions are over *included* nodes only.
  EXPECT_DOUBLE_EQ(map.largest_fraction(), 2.0 / 4.0);
}

TEST(ComponentsTest, DownEdgesSplitTheGraph) {
  // Ring 0-1-2-3-0 with edges {0,1} and {2,3} down: {1, 2} and {3, 0}.
  const Graph g = make_ring(4);
  std::vector<std::uint8_t> include(4, 1);
  std::vector<std::uint8_t> edge_down(g.edge_count(), 0);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto [u, v] = g.edges()[e];
    edge_down[e] = (u == 0 && v == 1) || (u == 2 && v == 3);
  }
  const ComponentMap map = connected_components(g, include, edge_down);
  EXPECT_EQ(map.count, 2u);
  EXPECT_TRUE(map.same_component(1, 2));
  EXPECT_TRUE(map.same_component(0, 3));
  EXPECT_FALSE(map.same_component(0, 1));
}

TEST(ComponentsTest, NothingIncludedIsTriviallyWhole) {
  const Graph g = make_ring(3);
  const ComponentMap map =
      connected_components(g, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(map.count, 0u);
  EXPECT_DOUBLE_EQ(map.largest_fraction(), 1.0);
  for (const std::size_t l : map.label) {
    EXPECT_EQ(l, ComponentMap::kExcluded);
  }
}

TEST(GeneratorsTest, RandomConnectedIsDeterministicPerSeed) {
  common::Rng rng1(42);
  common::Rng rng2(42);
  const Graph a = make_random_connected(20, 3.0, rng1);
  const Graph b = make_random_connected(20, 3.0, rng2);
  EXPECT_EQ(a.edges(), b.edges());
}

struct RandomGraphCase {
  std::size_t nodes;
  double degree;
};

class RandomConnectedTest
    : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(RandomConnectedTest, ConnectedWithTargetDegree) {
  const auto [nodes, degree] = GetParam();
  common::Rng rng(nodes * 31 + static_cast<std::uint64_t>(degree));
  const Graph g = make_random_connected(nodes, degree, rng);
  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_TRUE(g.is_connected());
  // Average degree is met when it is achievable above the spanning tree.
  const double tree_degree =
      2.0 * static_cast<double>(nodes - 1) / static_cast<double>(nodes);
  const double expected =
      std::clamp(degree, tree_degree, static_cast<double>(nodes - 1));
  EXPECT_NEAR(g.average_degree(), expected, 2.0 / double(nodes) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomConnectedTest,
    ::testing::Values(RandomGraphCase{5, 2.0}, RandomGraphCase{10, 3.0},
                      RandomGraphCase{20, 2.0}, RandomGraphCase{40, 4.0},
                      RandomGraphCase{60, 3.0}, RandomGraphCase{60, 6.0},
                      RandomGraphCase{100, 3.0}, RandomGraphCase{30, 29.0},
                      RandomGraphCase{10, 1.0} /* clamped up to tree */));

}  // namespace
}  // namespace snap::topology
