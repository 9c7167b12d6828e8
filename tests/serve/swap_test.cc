// Model lifecycle through the serving path (DESIGN.md §4.8): hot swap
// under both SwapPolicies with bitwise version pinning, the deterministic
// A/B split end to end, shadow scoring's bit-parity and isolation, version
// tags riding session migration, and a failpoint chaos sweep asserting
// exactly-once scoring with exact metrics attribution across a mid-stream
// swap.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "model/registry.h"
#include "nn/checkpoint.h"
#include "serve/inference_engine.h"
#include "serve/session_shard.h"
#include "serve_test_util.h"
#include "util/failpoint.h"

namespace tpgnn::serve {
namespace {

constexpr uint64_t kPrimarySeed = 5;
constexpr uint64_t kV2Seed = 7;

graph::GraphDataset SwapDataset() {
  return data::MakeDataset(data::HdfsSpec(), /*count=*/4, /*seed=*/21);
}

core::TpGnnModel& VersionModel(const model::ModelRegistry& registry,
                               const std::string& name) {
  // Tests need the mutable ref only because ForwardLogit uses scratch.
  return const_cast<core::TpGnnModel&>(registry.Find(name)->model());
}

// Streams the first `prefix` edges of `g` into session `id`.
void FeedPrefix(SessionShard& shard, uint64_t id,
                const graph::TemporalGraph& g, size_t prefix) {
  for (size_t e = 0; e < prefix; ++e) {
    ASSERT_TRUE(shard
                    .AddEdge(id, g.edges()[e].src, g.edges()[e].dst,
                             g.edges()[e].time, /*now=*/0.0)
                    .ok());
  }
}

class SwapTest : public ::testing::Test {
 protected:
  SwapTest() : registry_(TinyServeConfig(), kPrimarySeed) {
    EXPECT_TRUE(registry_.Register("v2", kV2Seed).ok());
  }

  model::ModelRegistry registry_;
  Metrics metrics_;
};

TEST_F(SwapTest, DrainSwapPinsLiveSessionsAndRoutesNewOnesToNewPrimary) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  const size_t half = static_cast<size_t>(g.num_edges()) / 2;

  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 1, g, half);

  ASSERT_TRUE(registry_.Activate("v2", model::SwapPolicy::kDrain).ok());

  for (size_t e = half; e < static_cast<size_t>(g.num_edges()); ++e) {
    ASSERT_TRUE(shard
                    .AddEdge(1, g.edges()[e].src, g.edges()[e].dst,
                             g.edges()[e].time, /*now=*/0.0)
                    .ok());
  }
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  // Pinned at Begin: the session scores under the old primary, bitwise.
  EXPECT_EQ(result.logit, OfflineLogit(VersionModel(registry_, "v0"), g));

  // A session begun after the swap scores under the new primary.
  ASSERT_TRUE(shard
                  .BeginSession(2, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 2, g, static_cast<size_t>(g.num_edges()));
  ASSERT_TRUE(shard.Score(2, &result).ok());
  EXPECT_EQ(result.logit, OfflineLogit(VersionModel(registry_, "v2"), g));

  const MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.mixed_version_scores, 0u);
  EXPECT_EQ(snap.version_rebases, 0u);
}

TEST_F(SwapTest, RebaseSwapRefoldsLiveSessionAtNextTouch) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  const size_t half = static_cast<size_t>(g.num_edges()) / 2;

  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 1, g, half);

  ASSERT_TRUE(
      registry_.Activate("v2", model::SwapPolicy::kImmediateRebase).ok());

  for (size_t e = half; e < static_cast<size_t>(g.num_edges()); ++e) {
    ASSERT_TRUE(shard
                    .AddEdge(1, g.edges()[e].src, g.edges()[e].dst,
                             g.edges()[e].time, /*now=*/0.0)
                    .ok());
  }
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  // Rebase: the session re-resolved and refolded everything under v2 —
  // bit-identical to v2's offline forward, with no trace of v0's fold.
  EXPECT_EQ(result.logit, OfflineLogit(VersionModel(registry_, "v2"), g));

  const MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.version_rebases, 1u);
  EXPECT_EQ(snap.mixed_version_scores, 0u);
}

TEST_F(SwapTest, AbSplitRoutesSessionsDeterministically) {
  ASSERT_TRUE(registry_.SetCandidate("v2", 0.5).ok());
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[1].graph;

  const float v0_logit = OfflineLogit(VersionModel(registry_, "v0"), g);
  const float v2_logit = OfflineLogit(VersionModel(registry_, "v2"), g);
  ASSERT_NE(v0_logit, v2_logit) << "seeds must give distinguishable models";

  size_t candidate_sessions = 0;
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(shard
                    .BeginSession(id, g.num_nodes(), g.feature_dim(),
                                  AllNodeFeatures(g), /*now=*/0.0)
                    .ok());
    FeedPrefix(shard, id, g, static_cast<size_t>(g.num_edges()));
    ScoreResult result;
    ASSERT_TRUE(shard.Score(id, &result).ok());
    const bool expect_candidate =
        model::AbPicksCandidate(id, registry_.ab_salt(), 0.5);
    EXPECT_EQ(result.logit, expect_candidate ? v2_logit : v0_logit)
        << "session " << id;
    // The export tag records the same assignment the score used.
    SessionState state;
    ASSERT_TRUE(shard.ExportSession(id, &state).ok());
    EXPECT_EQ(state.model_version, expect_candidate ? "v2" : "v0");
    if (expect_candidate) ++candidate_sessions;
  }
  EXPECT_GT(candidate_sessions, 0u);
  EXPECT_LT(candidate_sessions, 32u);
  EXPECT_EQ(metrics_.Snapshot().mixed_version_scores, 0u);
}

TEST_F(SwapTest, ShadowScoreIsBitIdenticalToOfflineForwardAndNeverLeaks) {
  ASSERT_TRUE(registry_.SetShadow("v2").ok());
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[2].graph;

  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 1, g, static_cast<size_t>(g.num_edges()));
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  // The client-visible result is the primary's — shadow never leaks.
  EXPECT_EQ(result.logit, OfflineLogit(VersionModel(registry_, "v0"), g));

  ASSERT_TRUE(shard.ShadowScore(1, result.logit).ok());

  // The shadow replay is bit-identical to v2's offline forward, so the
  // recorded delta is exactly |primary − v2 offline|.
  const double expected_delta = std::fabs(
      static_cast<double>(result.logit) -
      static_cast<double>(OfflineLogit(VersionModel(registry_, "v2"), g)));
  const MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.shadow_scores, 1u);
  EXPECT_EQ(snap.shadow_failures, 0u);
  EXPECT_EQ(snap.shadow_delta_max, expected_delta);
  EXPECT_NEAR(snap.shadow_delta_sum, expected_delta, 1e-9);
  EXPECT_EQ(snap.shadow_latency.count, 1u);
}

TEST_F(SwapTest, ShadowTwinOfThePrimaryRecordsAnExactlyZeroDelta) {
  // A shadow version with the primary's parameters: the shadow forward and
  // the incrementally folded primary agree bit for bit, in arrival order
  // and after a late edge reorders the chronology alike.
  ASSERT_TRUE(registry_.Register("twin", kPrimarySeed).ok());
  ASSERT_TRUE(registry_.SetShadow("twin").ok());
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[2].graph;
  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 1, g, static_cast<size_t>(g.num_edges()));
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  ASSERT_TRUE(shard.ShadowScore(1, result.logit).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, /*edge_time=*/0.0, /*now=*/0.0).ok());
  ASSERT_TRUE(shard.Score(1, &result).ok());
  ASSERT_TRUE(shard.ShadowScore(1, result.logit).ok());

  const MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.shadow_scores, 2u);
  EXPECT_EQ(snap.shadow_failures, 0u);
  EXPECT_EQ(snap.shadow_delta_max, 0.0);
}

TEST_F(SwapTest, ShadowScoreIsNoOpWithoutShadowVersion) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[2].graph;
  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  EXPECT_TRUE(shard.ShadowScore(1, 0.0f).ok());
  EXPECT_EQ(metrics_.Snapshot().shadow_scores, 0u);
}

TEST_F(SwapTest, ShadowFaultsAreCountedAndIsolatedFromThePrimary) {
  ASSERT_TRUE(registry_.SetShadow("v2").ok());
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[2].graph;
  ASSERT_TRUE(shard
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(shard, 1, g, static_cast<size_t>(g.num_edges()));

  ScoreResult before;
  ASSERT_TRUE(shard.Score(1, &before).ok());
  {
    failpoint::ScopedFailpoint fp("model.shadow_score", 1.0,
                                  failpoint::Kind::kReturnError);
    EXPECT_EQ(shard.ShadowScore(1, before.logit).code(),
              StatusCode::kInternal);
    EXPECT_EQ(fp.fires(), 1u);
  }
  // A shadow pass against a session that ended in between is a counted
  // failure, not an error on any client path.
  EXPECT_EQ(shard.ShadowScore(999, before.logit).code(),
            StatusCode::kNotFound);

  const MetricsSnapshot snap = metrics_.Snapshot();
  EXPECT_EQ(snap.shadow_failures, 2u);
  EXPECT_EQ(snap.shadow_scores, 0u);

  // The injected shadow death left the primary path untouched.
  ScoreResult after;
  ASSERT_TRUE(shard.Score(1, &after).ok());
  EXPECT_EQ(after.logit, before.logit);
}

TEST_F(SwapTest, MigrationCarriesThePinnedVersionAcrossRegistries) {
  // Source backend: session pinned to v0 while v2 is already loaded.
  SessionShard source(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[3].graph;
  const size_t half = static_cast<size_t>(g.num_edges()) / 2;
  ASSERT_TRUE(source
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(source, 1, g, half);
  SessionState state;
  ASSERT_TRUE(source.ExportSession(1, &state).ok());
  EXPECT_EQ(state.model_version, "v0");

  // Destination backend: same versions, but its primary is already v2.
  model::ModelRegistry dest_registry(TinyServeConfig(), kPrimarySeed);
  ASSERT_TRUE(dest_registry.Register("v2", kV2Seed).ok());
  ASSERT_TRUE(
      dest_registry.Activate("v2", model::SwapPolicy::kImmediateRebase).ok());
  Metrics dest_metrics;
  SessionShard dest(dest_registry, ShardOptions{}, &dest_metrics);
  ASSERT_TRUE(dest.ImportSession(state, /*now=*/0.0).ok());

  for (size_t e = half; e < static_cast<size_t>(g.num_edges()); ++e) {
    ASSERT_TRUE(dest
                    .AddEdge(1, g.edges()[e].src, g.edges()[e].dst,
                             g.edges()[e].time, /*now=*/0.0)
                    .ok());
  }
  ScoreResult result;
  ASSERT_TRUE(dest.Score(1, &result).ok());
  // The migrated session keeps scoring under v0, bit-identically, even
  // though the destination's primary is v2 …
  EXPECT_EQ(result.logit, OfflineLogit(VersionModel(registry_, "v0"), g));
  // … while a fresh session on the destination lands on v2.
  ASSERT_TRUE(dest
                  .BeginSession(2, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  FeedPrefix(dest, 2, g, static_cast<size_t>(g.num_edges()));
  ASSERT_TRUE(dest.Score(2, &result).ok());
  EXPECT_EQ(result.logit,
            OfflineLogit(VersionModel(dest_registry, "v2"), g));
  EXPECT_EQ(dest_metrics.Snapshot().mixed_version_scores, 0u);
}

TEST_F(SwapTest, ImportOfUnknownVersionTagFailsPrecondition) {
  SessionShard source(registry_, ShardOptions{}, &metrics_);
  const graph::GraphDataset dataset = SwapDataset();
  const graph::TemporalGraph& g = dataset[3].graph;
  ASSERT_TRUE(source
                  .BeginSession(1, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());
  SessionState state;
  ASSERT_TRUE(source.ExportSession(1, &state).ok());
  state.model_version = "ghost";

  SessionShard dest(registry_, ShardOptions{}, &metrics_);
  EXPECT_EQ(dest.ImportSession(state, /*now=*/0.0).code(),
            StatusCode::kFailedPrecondition);
  // An empty tag (v1 snapshot) resolves to the primary instead.
  state.model_version.clear();
  EXPECT_TRUE(dest.ImportSession(state, /*now=*/0.0).ok());
}

// The chaos half of satellite coverage: a stream of sessions scored across
// a mid-stream load + swap while model.load / model.activate /
// model.shadow_score inject faults. Invariants: every score request
// produces exactly one result, every counter attributes exactly (loads and
// activations count successes only; every successful score is attributed
// to exactly one of shadow_scores / shadow_failures), and no score ever
// mixes versions.
TEST(SwapChaosTest, ExactlyOnceScoringAndExactAttributionAcrossSwap) {
  failpoint::SetSeed(2024);
  const core::TpGnnConfig config = TinyServeConfig();

  // A real checkpoint so the chaos sweep exercises the full load path.
  const std::string path = ::testing::TempDir() + "swap_chaos_v2.ckpt";
  {
    core::TpGnnModel v2(config, kV2Seed);
    ASSERT_TRUE(
        nn::SaveParameters(v2, path, core::ConfigMetadata(config)).ok());
  }

  EngineOptions options;
  options.num_shards = 2;
  options.max_pending_scores = 64;
  options.max_batch = 8;
  InferenceEngine engine(config, kPrimarySeed, options);
  ASSERT_TRUE(engine.registry().Register("shadow", kPrimarySeed).ok());
  ASSERT_TRUE(engine.registry().SetShadow("shadow").ok());

  failpoint::ScopedFailpoint load_fp("model.load", 0.5,
                                     failpoint::Kind::kReturnError);
  failpoint::ScopedFailpoint activate_fp("model.activate", 0.5,
                                         failpoint::Kind::kReturnError);
  failpoint::ScopedFailpoint shadow_fp("model.shadow_score", 0.3,
                                       failpoint::Kind::kReturnError);

  // Retry loops around the faulted admin verbs: each attempt either fails
  // injected (no state change) or succeeds exactly once.
  uint64_t load_attempts = 0;
  while (true) {
    ++load_attempts;
    ASSERT_LT(load_attempts, 64u) << "model.load at p=0.5 never succeeded";
    Status s = engine.LoadModelVersion("v2", path);
    if (s.ok()) break;
    ASSERT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }

  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/12, /*seed=*/9);
  std::vector<ScoreResult> results;
  size_t score_requests = 0;
  bool activated = false;
  uint64_t activate_attempts = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const graph::TemporalGraph& g = dataset[i].graph;
    const uint64_t id = 100 + i;
    Event begin;
    begin.kind = Event::Kind::kBegin;
    begin.session_id = id;
    begin.num_nodes = g.num_nodes();
    begin.feature_dim = g.feature_dim();
    for (int64_t node = 0; node < g.num_nodes(); ++node) {
      begin.features.push_back({node, g.node_feature(node)});
    }
    ASSERT_TRUE(engine.Ingest(begin).ok());
    for (const graph::TemporalEdge& e : g.edges()) {
      Event edge;
      edge.kind = Event::Kind::kEdge;
      edge.session_id = id;
      edge.src = e.src;
      edge.dst = e.dst;
      edge.edge_time = e.time;
      Status s = engine.Ingest(edge);
      while (s.code() == StatusCode::kOverloaded) {
        engine.ProcessPending(&results);
        s = engine.Ingest(edge);
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    Event score;
    score.kind = Event::Kind::kScore;
    score.session_id = id;
    ASSERT_TRUE(engine.Ingest(score).ok());
    ++score_requests;

    // Mid-stream: swap the primary onto the loaded v2 (faulted, retried).
    if (i == dataset.size() / 2) {
      while (!activated) {
        ++activate_attempts;
        ASSERT_LT(activate_attempts, 64u)
            << "model.activate at p=0.5 never succeeded";
        Status s =
            engine.ActivateModel("v2", model::SwapPolicy::kImmediateRebase);
        if (s.ok()) {
          activated = true;
        } else {
          ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition)
              << s.ToString();
        }
      }
    }
  }
  engine.Flush(&results);

  // Exactly-once scoring: one ok result per request, none duplicated or
  // dropped by the faults (which only ever hit admin and shadow paths).
  ASSERT_EQ(results.size(), score_requests);
  for (const ScoreResult& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }

  const MetricsSnapshot snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.scores_completed, score_requests);
  EXPECT_EQ(snap.scores_failed, 0u);
  EXPECT_EQ(snap.mixed_version_scores, 0u);
  // Exact attribution: only the successful admin verbs counted …
  EXPECT_EQ(snap.model_loads, 1u);
  EXPECT_EQ(snap.model_activations, 1u);
  // … and every completed score fed exactly one shadow outcome.
  EXPECT_EQ(snap.shadow_scores + snap.shadow_failures, score_requests);
  EXPECT_GT(snap.shadow_failures, 0u) << "p=0.3 over 12 scores: ~0.99 odds";
  EXPECT_GT(snap.shadow_scores, 0u);
  // (Post-swap the primary is v2 while the shadow stays on the v0 seed, so
  // nonzero deltas are expected here; the zero-delta shadow parity gate
  // runs in bench_swap and ShadowScoreIsBitIdenticalToOfflineForward.)
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpgnn::serve
