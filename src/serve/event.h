#ifndef TPGNN_SERVE_EVENT_H_
#define TPGNN_SERVE_EVENT_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/status.h"

// The online-serving event vocabulary: a session (one continuous-time
// dynamic network, Definition 1) streams in as a Begin carrying the node
// set and features, a sequence of timestamped edges, score requests, and an
// End. Events of different sessions interleave freely on one stream; events
// of the same session must be submitted in order (the per-session
// determinism contract, see DESIGN.md §"Serving").

namespace tpgnn::serve {

// Feature vector of one node, shipped with the session Begin event.
struct NodeInit {
  int64_t node = 0;
  std::vector<float> features;
};

struct Event {
  enum class Kind {
    kBegin,  // Open a session: num_nodes, feature_dim, features.
    kEdge,   // Append a timestamped interaction (src, dst, edge_time).
    kScore,  // Request an anomaly score for the session's current state.
    kEnd,    // Close the session and release its state.
  };

  Kind kind = Kind::kEdge;
  uint64_t session_id = 0;
  // Arrival position on the global stream, in stream seconds. Drives TTL
  // eviction and replay pacing; strictly bookkeeping, never model input.
  double time = 0.0;

  // kBegin:
  int64_t num_nodes = 0;
  int64_t feature_dim = 0;
  std::vector<NodeInit> features;

  // kEdge:
  int64_t src = 0;
  int64_t dst = 0;
  // Session-local interaction timestamp (the model's t).
  double edge_time = 0.0;

  // kScore: optional ground-truth label carried through to the ScoreResult
  // for accuracy bookkeeping (-1 = unknown).
  int label = -1;
};

// P(normal) of a logit: the one expression every served probability and
// every reference probability is computed with, so the two agree bit for
// bit whenever the logits do.
inline float ProbabilityOf(float logit) {
  return 1.0f / (1.0f + std::exp(-logit));
}

// Outcome of one score request.
struct ScoreResult {
  uint64_t session_id = 0;
  Status status;
  float logit = 0.0f;
  float probability = 0.0f;      // ProbabilityOf(logit).
  int64_t edges_scored = 0;      // Session edge count at scoring time.
  int label = -1;                // Echoed from the request.
  double queue_micros = 0.0;     // Enqueue -> start of scoring.
  double score_micros = 0.0;     // The scoring computation itself.
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_EVENT_H_
