#ifndef TPGNN_GRAPH_INFLUENCE_H_
#define TPGNN_GRAPH_INFLUENCE_H_

#include <vector>

#include "graph/temporal_graph.h"

// Influential-node closure (Definition 4 of the paper): node u is
// influential to v iff a valid path — a sequence of edges with
// non-decreasing timestamps — leads from u to v. This reference
// implementation processes edges chronologically and propagates ancestor
// sets, mirroring the order used by temporal propagation; it is the oracle
// against which Theorem 1 is property-tested.

namespace tpgnn::graph {

class InfluenceClosure {
 public:
  // Computes the closure over graph.ChronologicalEdges(): ties in time
  // resolve by insertion order, the order the propagation algorithm
  // consumes.
  explicit InfluenceClosure(const TemporalGraph& graph);

  // True iff u is influential to v (u != v; a node is not considered its own
  // influencer).
  bool Influences(int64_t u, int64_t v) const;

  // All nodes influential to v.
  std::vector<int64_t> InfluencersOf(int64_t v) const;

  int64_t num_nodes() const { return num_nodes_; }

 private:
  int64_t num_nodes_;
  // reach_[v][u] == true iff u is influential to v.
  std::vector<std::vector<bool>> reach_;
};

}  // namespace tpgnn::graph

#endif  // TPGNN_GRAPH_INFLUENCE_H_
