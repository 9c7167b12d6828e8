#include "graph/influence.h"

#include "util/logging.h"

namespace tpgnn::graph {

InfluenceClosure::InfluenceClosure(const TemporalGraph& graph)
    : num_nodes_(graph.num_nodes()) {
  reach_.assign(static_cast<size_t>(num_nodes_),
                std::vector<bool>(static_cast<size_t>(num_nodes_), false));
  // Processing edges in chronological order, the ancestor set of the target
  // absorbs the source and the source's ancestors: exactly the information
  // flow realized by temporal propagation.
  for (const TemporalEdge& e : graph.ChronologicalEdges()) {
    auto& dst = reach_[static_cast<size_t>(e.dst)];
    const auto& src = reach_[static_cast<size_t>(e.src)];
    dst[static_cast<size_t>(e.src)] = true;
    for (int64_t u = 0; u < num_nodes_; ++u) {
      if (src[static_cast<size_t>(u)]) {
        dst[static_cast<size_t>(u)] = true;
      }
    }
  }
}

bool InfluenceClosure::Influences(int64_t u, int64_t v) const {
  TPGNN_CHECK_GE(u, 0);
  TPGNN_CHECK_LT(u, num_nodes_);
  TPGNN_CHECK_GE(v, 0);
  TPGNN_CHECK_LT(v, num_nodes_);
  return reach_[static_cast<size_t>(v)][static_cast<size_t>(u)];
}

std::vector<int64_t> InfluenceClosure::InfluencersOf(int64_t v) const {
  TPGNN_CHECK_GE(v, 0);
  TPGNN_CHECK_LT(v, num_nodes_);
  std::vector<int64_t> out;
  for (int64_t u = 0; u < num_nodes_; ++u) {
    if (reach_[static_cast<size_t>(v)][static_cast<size_t>(u)]) {
      out.push_back(u);
    }
  }
  return out;
}

}  // namespace tpgnn::graph
