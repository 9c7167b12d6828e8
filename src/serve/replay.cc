#include "serve/replay.h"

#include <algorithm>

#include "util/logging.h"

namespace tpgnn::serve {

EventReplayer::EventReplayer(const graph::GraphDataset& dataset,
                             const ReplayOptions& options) {
  TPGNN_CHECK_GT(options.speed, 0.0);
  TPGNN_CHECK_GE(options.session_start_interval, 0.0);

  num_sessions_ = dataset.size();
  for (size_t i = 0; i < dataset.size(); ++i) {
    const graph::LabeledGraph& sample = dataset[i];
    const uint64_t session_id = options.first_session_id + i;
    const double start =
        static_cast<double>(i) * options.session_start_interval /
        options.speed;

    Event begin;
    begin.kind = Event::Kind::kBegin;
    begin.session_id = session_id;
    begin.time = start;
    begin.num_nodes = sample.graph.num_nodes();
    begin.feature_dim = sample.graph.feature_dim();
    begin.features.reserve(static_cast<size_t>(sample.graph.num_nodes()));
    for (int64_t node = 0; node < sample.graph.num_nodes(); ++node) {
      begin.features.push_back({node, sample.graph.node_feature(node)});
    }
    events_.push_back(std::move(begin));

    // Edges stream in chronological order, offset onto the stream clock by
    // the session start; edge_time keeps the session-local timestamp the
    // model consumes.
    const std::vector<graph::TemporalEdge> chronological =
        sample.graph.ChronologicalEdges();
    double last_time = start;
    for (size_t k = 0; k < chronological.size(); ++k) {
      const graph::TemporalEdge& e = chronological[k];
      Event edge;
      edge.kind = Event::Kind::kEdge;
      edge.session_id = session_id;
      edge.time = start + e.time / options.speed;
      edge.src = e.src;
      edge.dst = e.dst;
      edge.edge_time = e.time;
      last_time = edge.time;
      events_.push_back(std::move(edge));

      if (options.score_every_edges > 0 &&
          static_cast<int64_t>(k + 1) % options.score_every_edges == 0) {
        Event score;
        score.kind = Event::Kind::kScore;
        score.session_id = session_id;
        score.time = last_time;
        score.label = sample.label;
        events_.push_back(std::move(score));
        ++num_score_requests_;
      }
    }

    if (options.score_at_end) {
      Event score;
      score.kind = Event::Kind::kScore;
      score.session_id = session_id;
      score.time = last_time;
      score.label = sample.label;
      events_.push_back(std::move(score));
      ++num_score_requests_;
    }

    Event end;
    end.kind = Event::Kind::kEnd;
    end.session_id = session_id;
    end.time = last_time;
    events_.push_back(std::move(end));
  }

  // Merge sessions on the stream clock. A session's own events carry
  // nondecreasing times and the sort is stable over the session-major build
  // order, so per-session order is preserved exactly.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
}

}  // namespace tpgnn::serve
