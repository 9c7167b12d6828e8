#ifndef TPGNN_GRAPH_NEIGHBOR_INDEX_H_
#define TPGNN_GRAPH_NEIGHBOR_INDEX_H_

#include <vector>

#include "graph/temporal_graph.h"

// Temporal neighborhood queries for the continuous DGNN baselines
// (TGAT/TGN/GraphMixer): "the k most recent interactions of node v strictly
// before time t".

namespace tpgnn::graph {

struct TemporalNeighbor {
  int64_t node = 0;  // The other endpoint.
  double time = 0.0;
};

class TemporalNeighborIndex {
 public:
  // `undirected` treats every edge as an interaction visible from both
  // endpoints (the convention of TGAT/TGN); otherwise only in-edges (sources
  // of information flow) are indexed for the destination node.
  explicit TemporalNeighborIndex(const TemporalGraph& graph,
                                 bool undirected = true);

  // Up to `k` most recent neighbors of `node` with interaction time < t,
  // most recent first.
  std::vector<TemporalNeighbor> Recent(int64_t node, double t,
                                       int64_t k) const;

 private:
  // Per node, interactions sorted ascending by time.
  std::vector<std::vector<TemporalNeighbor>> by_node_;
};

}  // namespace tpgnn::graph

#endif  // TPGNN_GRAPH_NEIGHBOR_INDEX_H_
