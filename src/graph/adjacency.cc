#include "graph/adjacency.h"

#include <cmath>

#include "util/logging.h"

namespace tpgnn::graph {

using tensor::Tensor;

Tensor DenseAdjacency(int64_t num_nodes,
                      const std::vector<TemporalEdge>& edges,
                      const AdjacencyOptions& options) {
  Tensor adj = Tensor::Zeros({num_nodes, num_nodes});
  for (const TemporalEdge& e : edges) {
    adj.MutableAt({e.src, e.dst}) = 1.0f;
    if (options.symmetric) {
      adj.MutableAt({e.dst, e.src}) = 1.0f;
    }
  }
  if (options.add_self_loops) {
    for (int64_t i = 0; i < num_nodes; ++i) {
      adj.MutableAt({i, i}) = 1.0f;
    }
  }
  return adj;
}

namespace {

std::vector<float> Degrees(const Tensor& adjacency) {
  TPGNN_CHECK_EQ(adjacency.dim(), 2);
  TPGNN_CHECK_EQ(adjacency.size(0), adjacency.size(1));
  const int64_t n = adjacency.size(0);
  std::vector<float> deg(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      deg[static_cast<size_t>(i)] += adjacency.at({i, j});
    }
  }
  return deg;
}

}  // namespace

Tensor SymmetricNormalize(const Tensor& adjacency) {
  const int64_t n = adjacency.size(0);
  std::vector<float> deg = Degrees(adjacency);
  Tensor out = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    const float di = deg[static_cast<size_t>(i)];
    if (di <= 0.0f) continue;
    for (int64_t j = 0; j < n; ++j) {
      const float dj = deg[static_cast<size_t>(j)];
      if (dj <= 0.0f) continue;
      out.MutableAt({i, j}) =
          adjacency.at({i, j}) / (std::sqrt(di) * std::sqrt(dj));
    }
  }
  return out;
}

Tensor RowNormalize(const Tensor& adjacency) {
  const int64_t n = adjacency.size(0);
  std::vector<float> deg = Degrees(adjacency);
  Tensor out = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    const float di = deg[static_cast<size_t>(i)];
    if (di <= 0.0f) continue;
    for (int64_t j = 0; j < n; ++j) {
      out.MutableAt({i, j}) = adjacency.at({i, j}) / di;
    }
  }
  return out;
}

Tensor NormalizedLaplacian(const Tensor& adjacency) {
  const int64_t n = adjacency.size(0);
  Tensor norm = SymmetricNormalize(adjacency);
  Tensor out = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out.MutableAt({i, j}) = (i == j ? 1.0f : 0.0f) - norm.at({i, j});
    }
  }
  return out;
}

}  // namespace tpgnn::graph
