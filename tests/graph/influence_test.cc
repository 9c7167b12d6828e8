#include "graph/influence.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tpgnn::graph {
namespace {

TEST(InfluenceTest, DirectEdgeInfluences) {
  TemporalGraph g(3, 1);
  g.AddEdge(0, 1, 1.0);
  InfluenceClosure closure(g);
  EXPECT_TRUE(closure.Influences(0, 1));
  EXPECT_FALSE(closure.Influences(1, 0));
  EXPECT_FALSE(closure.Influences(0, 2));
}

TEST(InfluenceTest, TimeRespectingPathInfluences) {
  TemporalGraph g(3, 1);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);  // 1 <= 2: valid path 0 -> 1 -> 2.
  InfluenceClosure closure(g);
  EXPECT_TRUE(closure.Influences(0, 2));
}

TEST(InfluenceTest, TimeViolatingPathDoesNotInfluence) {
  TemporalGraph g(3, 1);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(1, 2, 2.0);  // Second hop happens before the first: invalid.
  InfluenceClosure closure(g);
  EXPECT_FALSE(closure.Influences(0, 2));
  EXPECT_TRUE(closure.Influences(0, 1));
  EXPECT_TRUE(closure.Influences(1, 2));
}

TEST(InfluenceTest, Figure1LongDependency) {
  // Mirrors the paper's Fig. 1 intuition: late information from v9 flows to
  // v6 only if the second (v7 -> v6) interaction happens after v9's edge.
  TemporalGraph normal(10, 1);
  normal.AddEdge(7, 6, 4.9);
  normal.AddEdge(9, 8, 6.0);
  normal.AddEdge(8, 7, 7.0);
  InfluenceClosure closure_normal(normal);
  EXPECT_TRUE(closure_normal.Influences(9, 7));
  EXPECT_FALSE(closure_normal.Influences(9, 6));

  TemporalGraph abnormal(10, 1);
  abnormal.AddEdge(7, 6, 4.9);
  abnormal.AddEdge(9, 8, 6.0);
  abnormal.AddEdge(8, 7, 7.0);
  abnormal.AddEdge(7, 6, 7.4);  // Second interaction after v9's info arrived.
  InfluenceClosure closure_abnormal(abnormal);
  EXPECT_TRUE(closure_abnormal.Influences(9, 6));
}

TEST(InfluenceTest, EqualTimestampsFollowProcessingOrder) {
  // ChronologicalEdges() is a stable sort: equal times keep insertion order.
  TemporalGraph order1(3, 1);
  order1.AddEdge(0, 1, 1.0);
  order1.AddEdge(1, 2, 1.0);
  EXPECT_TRUE(InfluenceClosure(order1).Influences(0, 2));  // (0,1) first.

  TemporalGraph order2(3, 1);
  order2.AddEdge(1, 2, 1.0);
  order2.AddEdge(0, 1, 1.0);
  EXPECT_FALSE(InfluenceClosure(order2).Influences(0, 2));
}

TEST(InfluenceTest, InfluencersOfCollectsAllAncestors) {
  TemporalGraph g(4, 1);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  InfluenceClosure closure(g);
  EXPECT_EQ(closure.InfluencersOf(3), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(closure.InfluencersOf(0), (std::vector<int64_t>{}));
}

TEST(InfluenceTest, SelfLoopMakesNodeItsOwnInfluencer) {
  TemporalGraph g(2, 1);
  g.AddEdge(0, 0, 1.0);
  InfluenceClosure closure(g);
  EXPECT_TRUE(closure.Influences(0, 0));
}

TEST(InfluenceTest, RepeatedEdgeRefreshesInformation) {
  // First 7->6 at t=1 carries nothing extra; after 8->7 at t=2, a second
  // 7->6 at t=3 carries 8's information to 6.
  TemporalGraph g(9, 1);
  g.AddEdge(7, 6, 1.0);
  g.AddEdge(8, 7, 2.0);
  g.AddEdge(7, 6, 3.0);
  InfluenceClosure closure(g);
  EXPECT_TRUE(closure.Influences(8, 6));
}

TEST(InfluenceTest, RandomGraphClosureMatchesPathSearch) {
  // Property: closure result equals brute-force search over all valid paths
  // (via DFS over time-respecting edge sequences).
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = 6;
    TemporalGraph g(n, 1);
    const int m = 10;
    for (int e = 0; e < m; ++e) {
      g.AddEdge(rng.UniformInt(0, n - 1), rng.UniformInt(0, n - 1),
                static_cast<double>(e + 1));  // Distinct increasing times.
    }
    InfluenceClosure closure(g);
    auto edges = g.ChronologicalEdges();
    // Brute force: reach[v] from u via DFS over edges with increasing index
    // when following time order (times are distinct here).
    for (int64_t u = 0; u < n; ++u) {
      std::vector<bool> reachable(static_cast<size_t>(n), false);
      // state: (node, min_next_edge_index)
      std::vector<std::pair<int64_t, size_t>> stack = {{u, 0}};
      while (!stack.empty()) {
        auto [node, start] = stack.back();
        stack.pop_back();
        for (size_t i = start; i < edges.size(); ++i) {
          if (edges[i].src == node) {
            if (!reachable[static_cast<size_t>(edges[i].dst)]) {
              reachable[static_cast<size_t>(edges[i].dst)] = true;
            }
            stack.emplace_back(edges[i].dst, i + 1);
          }
        }
      }
      for (int64_t v = 0; v < n; ++v) {
        EXPECT_EQ(closure.Influences(u, v), reachable[static_cast<size_t>(v)])
            << "trial " << trial << " u=" << u << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace tpgnn::graph
