#include "graph/eigen.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tpgnn::graph {
namespace {

using tensor::Tensor;

TEST(EigenTest, DiagonalMatrix) {
  Tensor m = Tensor::FromVector({3, 3}, {3, 0, 0, 0, 1, 0, 0, 0, 2});
  auto d = JacobiEigenDecomposition(m);
  ASSERT_EQ(d.eigenvalues.size(), 3u);
  EXPECT_NEAR(d.eigenvalues[0], 1.0, 1e-9);
  EXPECT_NEAR(d.eigenvalues[1], 2.0, 1e-9);
  EXPECT_NEAR(d.eigenvalues[2], 3.0, 1e-9);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] -> eigenvalues 1 and 3.
  Tensor m = Tensor::FromVector({2, 2}, {2, 1, 1, 2});
  auto d = JacobiEigenDecomposition(m);
  EXPECT_NEAR(d.eigenvalues[0], 1.0, 1e-9);
  EXPECT_NEAR(d.eigenvalues[1], 3.0, 1e-9);
}

TEST(EigenTest, EigenvectorsSatisfyDefinition) {
  Rng rng(1);
  const int64_t n = 8;
  // Random symmetric matrix.
  Tensor m = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      float v = rng.UniformFloat(-1.0f, 1.0f);
      m.MutableAt({i, j}) = v;
      m.MutableAt({j, i}) = v;
    }
  }
  auto d = JacobiEigenDecomposition(m);
  for (int64_t k = 0; k < n; ++k) {
    const auto& vec = d.eigenvectors[static_cast<size_t>(k)];
    for (int64_t i = 0; i < n; ++i) {
      double mv = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        mv += static_cast<double>(m.at({i, j})) * vec[static_cast<size_t>(j)];
      }
      EXPECT_NEAR(mv, d.eigenvalues[static_cast<size_t>(k)] *
                          vec[static_cast<size_t>(i)],
                  1e-6);
    }
  }
}

TEST(EigenTest, EigenvectorsAreOrthonormal) {
  Rng rng(2);
  const int64_t n = 6;
  Tensor m = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      float v = rng.UniformFloat(-1.0f, 1.0f);
      m.MutableAt({i, j}) = v;
      m.MutableAt({j, i}) = v;
    }
  }
  auto d = JacobiEigenDecomposition(m);
  for (int64_t a = 0; a < n; ++a) {
    for (int64_t b = 0; b < n; ++b) {
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        dot += d.eigenvectors[static_cast<size_t>(a)][static_cast<size_t>(i)] *
               d.eigenvectors[static_cast<size_t>(b)][static_cast<size_t>(i)];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  Rng rng(3);
  const int64_t n = 10;
  Tensor m = Tensor::Zeros({n, n});
  double trace = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      float v = rng.UniformFloat(-2.0f, 2.0f);
      m.MutableAt({i, j}) = v;
      m.MutableAt({j, i}) = v;
      if (i == j) trace += v;
    }
  }
  auto d = JacobiEigenDecomposition(m);
  double sum = 0.0;
  for (double ev : d.eigenvalues) sum += ev;
  EXPECT_NEAR(sum, trace, 1e-6);
}

TEST(EigenTest, LaplacianSmallestEigenvalueIsZero) {
  // Connected path graph: its Laplacian D - A has exactly one zero
  // eigenvalue.
  Tensor lap = Tensor::FromVector({5, 5}, {1, -1, 0, 0, 0,   //
                                           -1, 2, -1, 0, 0,  //
                                           0, -1, 2, -1, 0,  //
                                           0, 0, -1, 2, -1,  //
                                           0, 0, 0, -1, 1});
  auto d = JacobiEigenDecomposition(lap);
  EXPECT_NEAR(d.eigenvalues[0], 0.0, 1e-8);
  EXPECT_GT(d.eigenvalues[1], 1e-6);  // Algebraic connectivity > 0.
}

TEST(EigenTest, DisconnectedGraphHasTwoZeroEigenvalues) {
  // Two disjoint edges -> two connected components -> two zero eigenvalues.
  Tensor lap = Tensor::FromVector({4, 4}, {1, -1, 0, 0,   //
                                           -1, 1, 0, 0,   //
                                           0, 0, 1, -1,   //
                                           0, 0, -1, 1});
  auto d = JacobiEigenDecomposition(lap);
  EXPECT_NEAR(d.eigenvalues[0], 0.0, 1e-8);
  EXPECT_NEAR(d.eigenvalues[1], 0.0, 1e-8);
  EXPECT_GT(d.eigenvalues[2], 1e-6);
}

}  // namespace
}  // namespace tpgnn::graph
