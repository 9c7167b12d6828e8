#ifndef TPGNN_SERVE_REPLAY_H_
#define TPGNN_SERVE_REPLAY_H_

#include <cstdint>
#include <vector>

#include "graph/temporal_graph.h"
#include "serve/event.h"

// Turns any labeled GraphDataset into a timestamp-ordered interleaved event
// stream: each graph becomes one session (Begin with nodes + features, its
// edges in chronological order, optional periodic Score requests, a final
// Score, End), sessions start staggered along the stream clock, and the
// merged stream is sorted by stream time. The construction is fully
// deterministic in (dataset, options), so replay-driven tests and
// benchmarks are reproducible.

namespace tpgnn::serve {

struct ReplayOptions {
  // Stream seconds between consecutive session starts (before the speed
  // multiplier); controls how many sessions are concurrently open.
  double session_start_interval = 1.0;
  // Speed multiplier: all stream-time gaps are divided by this, compressing
  // (speed > 1) or stretching (speed < 1) the stream. Must be > 0.
  double speed = 1.0;
  // Emit a Score request every this many edges of a session (0 disables
  // mid-session scores).
  int64_t score_every_edges = 0;
  // Emit one Score with the session's ground-truth label just before End.
  bool score_at_end = true;
  // Session ids are assigned first_session_id, first_session_id + 1, ...
  uint64_t first_session_id = 1;
};

class EventReplayer {
 public:
  EventReplayer(const graph::GraphDataset& dataset,
                const ReplayOptions& options);

  // The merged stream, nondecreasing in Event::time; events of one session
  // keep their session order (Begin < edges < scores/End).
  const std::vector<Event>& events() const { return events_; }

  size_t num_sessions() const { return num_sessions_; }
  size_t num_score_requests() const { return num_score_requests_; }

 private:
  std::vector<Event> events_;
  size_t num_sessions_ = 0;
  size_t num_score_requests_ = 0;
};

}  // namespace tpgnn::serve

#endif  // TPGNN_SERVE_REPLAY_H_
