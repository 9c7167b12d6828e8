#ifndef TPGNN_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define TPGNN_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <vector>

#include "core/config.h"
#include "graph/temporal_graph.h"
#include "serve/event.h"
#include "serve/parity_oracle.h"

// Shared helpers for the serving tests: shipping a graph's node set into a
// session Begin, event builders, and a small model config. The offline
// reference score an incremental score must reproduce bit for bit is
// serve::OfflineLogit (serve/parity_oracle.h).

namespace tpgnn::serve {

inline std::vector<NodeInit> AllNodeFeatures(const graph::TemporalGraph& g) {
  std::vector<NodeInit> features;
  features.reserve(static_cast<size_t>(g.num_nodes()));
  for (int64_t node = 0; node < g.num_nodes(); ++node) {
    features.push_back({node, g.node_feature(node)});
  }
  return features;
}

inline Event BeginEvent(uint64_t id, const graph::TemporalGraph& g,
                        double time = 0.0) {
  Event e;
  e.kind = Event::Kind::kBegin;
  e.session_id = id;
  e.time = time;
  e.num_nodes = g.num_nodes();
  e.feature_dim = g.feature_dim();
  e.features = AllNodeFeatures(g);
  return e;
}

inline Event EdgeEvent(uint64_t id, int64_t src, int64_t dst,
                       double edge_time, double time = 0.0) {
  Event e;
  e.kind = Event::Kind::kEdge;
  e.session_id = id;
  e.time = time;
  e.src = src;
  e.dst = dst;
  e.edge_time = edge_time;
  return e;
}

inline Event ScoreEvent(uint64_t id, int label = -1) {
  Event e;
  e.kind = Event::Kind::kScore;
  e.session_id = id;
  e.label = label;
  return e;
}

inline Event EndEvent(uint64_t id) {
  Event e;
  e.kind = Event::Kind::kEnd;
  e.session_id = id;
  return e;
}

// Small model config so the full parity matrix stays fast.
inline core::TpGnnConfig TinyServeConfig() {
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

}  // namespace tpgnn::serve

#endif  // TPGNN_TESTS_SERVE_SERVE_TEST_UTIL_H_
