#include "graph/neighbor_index.h"

#include <algorithm>

#include "util/logging.h"

namespace tpgnn::graph {

TemporalNeighborIndex::TemporalNeighborIndex(const TemporalGraph& graph,
                                             bool undirected) {
  by_node_.assign(static_cast<size_t>(graph.num_nodes()), {});
  for (const TemporalEdge& e : graph.edges()) {
    by_node_[static_cast<size_t>(e.dst)].push_back({e.src, e.time});
    if (undirected) {
      by_node_[static_cast<size_t>(e.src)].push_back({e.dst, e.time});
    }
  }
  for (auto& list : by_node_) {
    std::stable_sort(list.begin(), list.end(),
                     [](const TemporalNeighbor& a, const TemporalNeighbor& b) {
                       return a.time < b.time;
                     });
  }
}

std::vector<TemporalNeighbor> TemporalNeighborIndex::Recent(int64_t node,
                                                            double t,
                                                            int64_t k) const {
  TPGNN_CHECK_GE(node, 0);
  TPGNN_CHECK_LT(node, static_cast<int64_t>(by_node_.size()));
  TPGNN_CHECK_GE(k, 0);
  const auto& list = by_node_[static_cast<size_t>(node)];
  // First element with time >= t.
  auto end = std::lower_bound(
      list.begin(), list.end(), t,
      [](const TemporalNeighbor& a, double value) { return a.time < value; });
  std::vector<TemporalNeighbor> out;
  out.reserve(static_cast<size_t>(k));
  for (auto it = end; it != list.begin() && static_cast<int64_t>(out.size()) < k;) {
    --it;
    out.push_back(*it);
  }
  return out;
}

}  // namespace tpgnn::graph
