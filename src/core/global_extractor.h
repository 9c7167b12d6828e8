#ifndef TPGNN_CORE_GLOBAL_EXTRACTOR_H_
#define TPGNN_CORE_GLOBAL_EXTRACTOR_H_

#include <vector>

#include "core/config.h"
#include "graph/temporal_graph.h"
#include "nn/gru_cell.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Global temporal embedding extractor (Sec. IV-C): converts node embeddings
// into edge embeddings via the Average EdgeAgg and runs a GRU over the edges
// in establishment order (Eqs. 7-10); the final hidden state is the graph
// embedding g.

namespace tpgnn::core {

// Combines the two endpoint embeddings ([k] each) into the edge embedding
// ([k], or [2k] for kConcatenation).
tensor::Tensor AggregateEdge(EdgeAgg agg, const tensor::Tensor& h_u,
                             const tensor::Tensor& h_v);

// Width of the aggregated edge embedding for node embeddings of width k.
int64_t EdgeAggOutputDim(EdgeAgg agg, int64_t node_dim);

class GlobalTemporalExtractor : public nn::Module {
 public:
  // `node_dim` is the node embedding width k; `hidden_dim` is the GRU
  // hidden size d.
  GlobalTemporalExtractor(int64_t node_dim, int64_t hidden_dim, Rng& rng,
                          ExtractorReadout readout =
                              ExtractorReadout::kMeanState,
                          EdgeAgg edge_agg = EdgeAgg::kAverage);

  // `node_embeddings`: [n, node_dim] matrix H from temporal propagation.
  // `edge_order`: chronological edge list. Returns the graph embedding [
  // hidden_dim]; for an edgeless graph this is the zero initial state.
  tensor::Tensor Forward(
      const tensor::Tensor& node_embeddings,
      const std::vector<graph::TemporalEdge>& edge_order) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  EdgeAgg edge_agg() const { return edge_agg_; }

 private:
  // GRU sweep used when gradients are disabled, two-phase over chunks of
  // edges: the gates' input projections run as multi-row GEMMs, then one
  // GruCell::Step per edge adds h·U and applies the gate maps. The embedding
  // is bit-identical to Forward in scalar SIMD mode and kernel-ulp-close
  // under a vector ISA.
  tensor::Tensor ForwardInference(
      const tensor::Tensor& node_embeddings,
      const std::vector<graph::TemporalEdge>& edge_order) const;

  int64_t node_dim_;
  int64_t edge_dim_;
  int64_t hidden_dim_;
  ExtractorReadout readout_;
  EdgeAgg edge_agg_;
  nn::GruCell gru_;
};

}  // namespace tpgnn::core

#endif  // TPGNN_CORE_GLOBAL_EXTRACTOR_H_
