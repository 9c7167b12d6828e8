#include "graph/adjacency.h"

#include <cmath>

#include <gtest/gtest.h>

namespace tpgnn::graph {
namespace {

using tensor::Tensor;

std::vector<TemporalEdge> PathEdges() {
  return {{0, 1, 1.0}, {1, 2, 2.0}};
}

TEST(AdjacencyTest, DirectedNoSelfLoops) {
  Tensor a = DenseAdjacency(3, PathEdges(),
                            {.symmetric = false, .add_self_loops = false});
  EXPECT_EQ(a.at({0, 1}), 1.0f);
  EXPECT_EQ(a.at({1, 0}), 0.0f);
  EXPECT_EQ(a.at({0, 0}), 0.0f);
}

TEST(AdjacencyTest, SymmetricWithSelfLoops) {
  Tensor a = DenseAdjacency(3, PathEdges());
  EXPECT_EQ(a.at({0, 1}), 1.0f);
  EXPECT_EQ(a.at({1, 0}), 1.0f);
  EXPECT_EQ(a.at({2, 2}), 1.0f);
}

TEST(AdjacencyTest, RepeatedEdgesCollapse) {
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {0, 1, 2.0}, {0, 1, 3.0}};
  Tensor a = DenseAdjacency(2, edges,
                            {.symmetric = false, .add_self_loops = false});
  EXPECT_EQ(a.at({0, 1}), 1.0f);
}

TEST(AdjacencyTest, SymmetricNormalizeRowsOfRegularGraph) {
  // Complete graph on 3 nodes with self loops: degree 3 everywhere, every
  // entry 1/3.
  std::vector<TemporalEdge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}};
  Tensor a = DenseAdjacency(3, edges);
  Tensor norm = SymmetricNormalize(a);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(norm.at({i, j}), 1.0f / 3.0f, 1e-6f);
    }
  }
}

TEST(AdjacencyTest, SymmetricNormalizeHandlesIsolatedNode) {
  Tensor a = DenseAdjacency(3, {{0, 1, 1.0}},
                            {.symmetric = true, .add_self_loops = false});
  Tensor norm = SymmetricNormalize(a);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(norm.at({2, j}), 0.0f);
  }
}

TEST(AdjacencyTest, RowNormalizeRowsSumToOne) {
  Tensor a = DenseAdjacency(3, PathEdges());
  Tensor norm = RowNormalize(a);
  for (int64_t i = 0; i < 3; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 3; ++j) total += norm.at({i, j});
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
}

TEST(AdjacencyTest, NormalizedLaplacianDiagonalOnes) {
  Tensor a = DenseAdjacency(3, {{0, 1, 1}, {1, 2, 1}},
                            {.symmetric = true, .add_self_loops = false});
  Tensor lap = NormalizedLaplacian(a);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(lap.at({i, i}), 1.0f, 1e-6f);
  }
  // Off-diagonal of path: -1/sqrt(d_i d_j) = -1/sqrt(2).
  EXPECT_NEAR(lap.at({0, 1}), -1.0f / std::sqrt(2.0f), 1e-6f);
}

}  // namespace
}  // namespace tpgnn::graph
