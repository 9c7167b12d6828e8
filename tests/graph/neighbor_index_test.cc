#include "graph/neighbor_index.h"

#include <gtest/gtest.h>

namespace tpgnn::graph {
namespace {

TemporalGraph MakeGraph() {
  TemporalGraph g(4, 1);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 1, 2.0);
  g.AddEdge(3, 1, 3.0);
  g.AddEdge(1, 0, 4.0);
  return g;
}

TEST(NeighborIndexTest, RecentReturnsMostRecentFirst) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/false);
  auto recent = index.Recent(1, 10.0, 2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].node, 3);
  EXPECT_EQ(recent[0].time, 3.0);
  EXPECT_EQ(recent[1].node, 2);
}

TEST(NeighborIndexTest, StrictlyBeforeQueryTime) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/false);
  auto recent = index.Recent(1, 3.0, 5);
  ASSERT_EQ(recent.size(), 2u);  // t=3 edge excluded.
  EXPECT_EQ(recent[0].node, 2);
}

TEST(NeighborIndexTest, DirectedIndexOnlySeesInEdges) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/false);
  // Node 0 only has the in-edge (1, 0, 4.0).
  auto recent = index.Recent(0, 10.0, 5);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].node, 1);
}

TEST(NeighborIndexTest, UndirectedSeesBothEndpoints) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/true);
  auto recent = index.Recent(0, 10.0, 5);
  // Edge (0,1,1.0) visible from node 0 too.
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].time, 4.0);
  EXPECT_EQ(recent[1].time, 1.0);
}

TEST(NeighborIndexTest, KLimitsResult) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/false);
  EXPECT_EQ(index.Recent(1, 10.0, 1).size(), 1u);
  EXPECT_EQ(index.Recent(1, 10.0, 0).size(), 0u);
}

TEST(NeighborIndexTest, NoNeighborsBeforeEarliestTime) {
  TemporalNeighborIndex index(MakeGraph(), /*undirected=*/true);
  EXPECT_TRUE(index.Recent(1, 0.5, 5).empty());
}

TEST(NeighborIndexTest, IsolatedNode) {
  TemporalGraph g(3, 1);
  g.AddEdge(0, 1, 1.0);
  TemporalNeighborIndex index(g);
  EXPECT_TRUE(index.Recent(2, 10.0, 3).empty());
}

}  // namespace
}  // namespace tpgnn::graph
