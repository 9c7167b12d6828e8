#ifndef TPGNN_GRAPH_ADJACENCY_H_
#define TPGNN_GRAPH_ADJACENCY_H_

#include <vector>

#include "graph/temporal_graph.h"
#include "tensor/tensor.h"

// Dense adjacency-matrix builders for the static and snapshot-based
// baselines. All returned tensors are constants (no gradient).

namespace tpgnn::graph {

struct AdjacencyOptions {
  bool symmetric = true;       // Add both directions.
  bool add_self_loops = true;  // A + I.
};

// Dense binary adjacency over the given edges (timestamps ignored; repeated
// edges collapse to 1).
tensor::Tensor DenseAdjacency(int64_t num_nodes,
                              const std::vector<TemporalEdge>& edges,
                              const AdjacencyOptions& options = {});

// GCN propagation matrix D^{-1/2} A D^{-1/2} computed from a dense
// non-negative adjacency (rows/cols with zero degree stay zero).
tensor::Tensor SymmetricNormalize(const tensor::Tensor& adjacency);

// Row-stochastic D^{-1} A (mean aggregation, GraphSage-style).
tensor::Tensor RowNormalize(const tensor::Tensor& adjacency);

// Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.
tensor::Tensor NormalizedLaplacian(const tensor::Tensor& adjacency);

}  // namespace tpgnn::graph

#endif  // TPGNN_GRAPH_ADJACENCY_H_
