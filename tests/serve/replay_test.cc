// EventReplayer: dataset -> interleaved event stream. Checks stream
// ordering, per-session event sequencing, score-request placement, the
// speed multiplier, and construction determinism.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "data/datasets.h"
#include "serve/replay.h"

namespace tpgnn::serve {
namespace {

graph::GraphDataset SmallDataset() {
  return data::MakeDataset(data::HdfsSpec(), /*count=*/8, /*seed=*/23);
}

TEST(ReplayTest, StreamIsTimeOrderedAndComplete) {
  graph::GraphDataset dataset = SmallDataset();
  ReplayOptions options;
  options.session_start_interval = 0.5;
  EventReplayer replayer(dataset, options);

  EXPECT_EQ(replayer.num_sessions(), dataset.size());
  EXPECT_EQ(replayer.num_score_requests(), dataset.size());  // score_at_end.

  size_t total_edges = 0;
  for (const graph::LabeledGraph& sample : dataset) {
    total_edges += sample.graph.edges().size();
  }
  // One Begin + one Score + one End per session, plus every edge.
  EXPECT_EQ(replayer.events().size(), 3 * dataset.size() + total_edges);

  double previous = 0.0;
  for (const Event& e : replayer.events()) {
    EXPECT_GE(e.time, previous);  // Nondecreasing stream clock.
    previous = e.time;
  }
}

TEST(ReplayTest, PerSessionSequencingIsPreserved) {
  graph::GraphDataset dataset = SmallDataset();
  ReplayOptions options;
  options.session_start_interval = 0.1;  // Heavy interleaving.
  options.score_every_edges = 2;
  EventReplayer replayer(dataset, options);

  struct SessionTrace {
    bool begun = false;
    bool ended = false;
    size_t edges = 0;
    double last_edge_time = -1.0;
  };
  std::map<uint64_t, SessionTrace> traces;
  for (const Event& e : replayer.events()) {
    SessionTrace& trace = traces[e.session_id];
    switch (e.kind) {
      case Event::Kind::kBegin:
        EXPECT_FALSE(trace.begun);
        trace.begun = true;
        break;
      case Event::Kind::kEdge:
        EXPECT_TRUE(trace.begun);
        EXPECT_FALSE(trace.ended);
        // Session-local timestamps arrive chronologically.
        EXPECT_GE(e.edge_time, trace.last_edge_time);
        trace.last_edge_time = e.edge_time;
        ++trace.edges;
        break;
      case Event::Kind::kScore:
        EXPECT_TRUE(trace.begun);
        EXPECT_FALSE(trace.ended);
        EXPECT_GE(e.label, 0);  // Ground truth is carried along.
        break;
      case Event::Kind::kEnd:
        EXPECT_TRUE(trace.begun);
        EXPECT_FALSE(trace.ended);
        trace.ended = true;
        break;
    }
  }
  ASSERT_EQ(traces.size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    const SessionTrace& trace = traces.at(options.first_session_id + i);
    EXPECT_TRUE(trace.ended);
    EXPECT_EQ(trace.edges, dataset[i].graph.edges().size());
  }
}

TEST(ReplayTest, SessionsActuallyInterleave) {
  // With starts packed closer than session durations, at least one foreign
  // event must land between some session's Begin and End.
  ReplayOptions options;
  options.session_start_interval = 0.05;
  EventReplayer replayer(SmallDataset(), options);
  bool interleaved = false;
  uint64_t open_session = 0;
  for (const Event& e : replayer.events()) {
    if (e.kind == Event::Kind::kBegin && open_session == 0) {
      open_session = e.session_id;
    } else if (open_session != 0 && e.session_id != open_session) {
      interleaved = true;
      break;
    } else if (e.kind == Event::Kind::kEnd && e.session_id == open_session) {
      open_session = 0;
    }
  }
  EXPECT_TRUE(interleaved);
}

TEST(ReplayTest, SpeedCompressesStreamClockOnly) {
  graph::GraphDataset dataset = SmallDataset();
  ReplayOptions slow;
  slow.session_start_interval = 1.0;
  ReplayOptions fast = slow;
  fast.speed = 4.0;
  EventReplayer baseline(dataset, slow);
  EventReplayer compressed(dataset, fast);

  ASSERT_EQ(baseline.events().size(), compressed.events().size());
  for (size_t i = 0; i < baseline.events().size(); ++i) {
    const Event& a = baseline.events()[i];
    const Event& b = compressed.events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_NEAR(b.time, a.time / 4.0, 1e-9);
    if (a.kind == Event::Kind::kEdge) {
      // Model-facing timestamps are untouched by the speed multiplier.
      EXPECT_EQ(a.edge_time, b.edge_time);
    }
  }
}

TEST(ReplayTest, ConstructionIsDeterministic) {
  graph::GraphDataset dataset = SmallDataset();
  ReplayOptions options;
  options.score_every_edges = 3;
  EventReplayer a(dataset, options);
  EventReplayer b(dataset, options);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].session_id, b.events()[i].session_id);
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
  }
}

TEST(ReplayTest, BeginShipsAllNodeFeatures) {
  graph::GraphDataset dataset = SmallDataset();
  EventReplayer replayer(dataset, ReplayOptions{});
  const Event& begin = replayer.events().front();
  ASSERT_EQ(begin.kind, Event::Kind::kBegin);
  const graph::TemporalGraph& g = dataset[0].graph;
  EXPECT_EQ(begin.num_nodes, g.num_nodes());
  EXPECT_EQ(begin.feature_dim, g.feature_dim());
  ASSERT_EQ(begin.features.size(), static_cast<size_t>(g.num_nodes()));
  for (const NodeInit& f : begin.features) {
    EXPECT_EQ(f.features, g.node_feature(f.node));
  }
}

}  // namespace
}  // namespace tpgnn::serve
