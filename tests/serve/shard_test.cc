// SessionShard lifecycle, validation, and eviction semantics: error
// statuses for malformed events, LRU eviction at the resident cap, TTL
// sweeps, and the pinning protocol that protects in-flight score requests.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/model.h"
#include "model/registry.h"
#include "data/datasets.h"
#include "serve/metrics.h"
#include "serve/session_shard.h"
#include "serve_test_util.h"
#include "tensor/kernels.h"
#include "util/failpoint.h"

namespace tpgnn::serve {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : registry_(TinyServeConfig(), /*seed=*/3) {}

  // Opens a minimal two-node session.
  Status Begin(SessionShard& shard, uint64_t id, double now = 0.0) {
    return shard.BeginSession(id, /*num_nodes=*/2, /*feature_dim=*/3,
                              {{0, {1.0f, 0.0f, 0.0f}}}, now);
  }

  model::ModelRegistry registry_;
  Metrics metrics_;
};

TEST_F(ShardTest, LifecycleAndValidation) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  EXPECT_EQ(shard.resident_sessions(), 1u);

  // Duplicate id, bad node count, bad feature width.
  EXPECT_EQ(Begin(shard, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 0, 3, {}, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 2, 5, {}, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.BeginSession(2, 2, 3, {{7, {1, 2, 3}}}, 0.0).code(),
            StatusCode::kInvalidArgument);

  // Edge validation.
  EXPECT_EQ(shard.AddEdge(99, 0, 1, 1.0, 0.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.AddEdge(1, 0, 5, 1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.AddEdge(1, -1, 1, 1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(shard.AddEdge(1, 0, 1, -1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());

  ScoreResult result;
  EXPECT_EQ(shard.Score(99, &result).code(), StatusCode::kNotFound);
  ASSERT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(result.edges_scored, 1);
  EXPECT_GT(result.probability, 0.0f);
  EXPECT_LT(result.probability, 1.0f);

  // End releases the session; later events are NotFound.
  ASSERT_TRUE(shard.EndSession(1).ok());
  EXPECT_EQ(shard.resident_sessions(), 0u);
  EXPECT_EQ(shard.EndSession(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(shard.AddEdge(1, 0, 1, 2.0, 0.0).code(), StatusCode::kNotFound);
}

// A NaN or infinite feature or edge time fails typed at admission, so it
// never reaches a kernel (the SIMD modes disagree on non-finite inputs).
// Imported folded state is adopted as it is.
TEST_F(ShardTest, NonFiniteFeaturesAndTimesAreRejected) {
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  for (float bad : kBad) {
    EXPECT_EQ(shard.BeginSession(1, 2, 3, {{0, {1.0f, bad, 0.0f}}}, 0.0).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(shard.resident_sessions(), 0u);
  EXPECT_EQ(metrics_.nonfinite_rejections.load(), 3u);

  ASSERT_TRUE(Begin(shard, 1).ok());
  for (float bad : kBad) {
    EXPECT_EQ(shard.AddEdge(1, 0, 1, static_cast<double>(bad), 0.0).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(metrics_.nonfinite_rejections.load(), 6u);
  // A negative time is invalid but finite: rejected, not counted.
  EXPECT_EQ(shard.AddEdge(1, 0, 1, -1.0, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(metrics_.nonfinite_rejections.load(), 6u);
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  SessionState good;
  ASSERT_TRUE(shard.ExportSession(1, &good).ok());

  SessionShard dest(registry_, ShardOptions{}, &metrics_);
  for (float bad : kBad) {
    SessionState state = good;
    state.features[1] = bad;
    EXPECT_EQ(dest.ImportSession(state, 0.0).code(),
              StatusCode::kInvalidArgument)
        << "feature " << bad;
    state = good;
    state.edges[0].time = static_cast<double>(bad);
    EXPECT_EQ(dest.ImportSession(state, 0.0).code(),
              StatusCode::kInvalidArgument)
        << "edge time " << bad;
  }
  EXPECT_EQ(dest.resident_sessions(), 0u);
  EXPECT_EQ(metrics_.nonfinite_rejections.load(), 12u);
  SessionState overflowed = good;
  overflowed.x[0] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(dest.ImportSession(overflowed, 0.0).ok());
  EXPECT_EQ(metrics_.nonfinite_rejections.load(), 12u);
}

TEST_F(ShardTest, ScoringEmptySessionWorks) {
  // A session with zero edges scores the initial embedding (no extractor
  // input edges) without crashing.
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(result.edges_scored, 0);
}

TEST_F(ShardTest, LruEvictionAtCap) {
  ShardOptions options;
  options.max_resident_sessions = 2;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, /*now=*/1.0).ok());
  ASSERT_TRUE(Begin(shard, 2, /*now=*/2.0).ok());
  // Touch session 1 so session 2 becomes least recently used.
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, /*now=*/3.0).ok());

  ASSERT_TRUE(Begin(shard, 3, /*now=*/4.0).ok());
  EXPECT_EQ(shard.resident_sessions(), 2u);
  EXPECT_EQ(metrics_.sessions_evicted.load(), 1u);
  // Session 2 (LRU) was evicted; 1 and 3 survive.
  ScoreResult result;
  EXPECT_EQ(shard.Score(2, &result).code(), StatusCode::kNotFound);
  EXPECT_TRUE(shard.Score(1, &result).ok());
  EXPECT_TRUE(shard.Score(3, &result).ok());
}

TEST_F(ShardTest, PinnedSessionsAreNotEvicted) {
  ShardOptions options;
  options.max_resident_sessions = 2;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, 1.0).ok());
  ASSERT_TRUE(Begin(shard, 2, 2.0).ok());
  ASSERT_TRUE(shard.Pin(1).ok());  // LRU but pinned.

  ASSERT_TRUE(Begin(shard, 3, 3.0).ok());
  // Session 2 was evicted instead of the pinned LRU session 1.
  ScoreResult result;
  EXPECT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(shard.Score(2, &result).code(), StatusCode::kNotFound);

  // With both residents pinned, there is nothing to evict: Overloaded.
  ASSERT_TRUE(shard.Pin(3).ok());
  EXPECT_EQ(Begin(shard, 4, 4.0).code(), StatusCode::kOverloaded);
  EXPECT_EQ(metrics_.overload_rejections.load(), 1u);

  // Unpinning frees capacity again.
  shard.Unpin(1);
  ASSERT_TRUE(Begin(shard, 4, 5.0).ok());
}

TEST_F(ShardTest, EndWhilePinnedDefersRemoval) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ASSERT_TRUE(shard.Pin(1).ok());
  ASSERT_TRUE(shard.EndSession(1).ok());

  // The ended session no longer accepts edges but can still be scored by
  // the in-flight request that pinned it.
  EXPECT_EQ(shard.AddEdge(1, 0, 1, 2.0, 0.0).code(),
            StatusCode::kFailedPrecondition);
  ScoreResult result;
  ASSERT_TRUE(shard.Score(1, &result).ok());
  EXPECT_EQ(result.edges_scored, 1);

  shard.Unpin(1);  // Last pin drops -> deferred removal completes.
  EXPECT_EQ(shard.resident_sessions(), 0u);
  EXPECT_EQ(shard.Score(1, &result).code(), StatusCode::kNotFound);
}

TEST_F(ShardTest, TtlEvictsIdleSessionsOnly) {
  ShardOptions options;
  options.idle_ttl_seconds = 10.0;
  SessionShard shard(registry_, options, &metrics_);
  ASSERT_TRUE(Begin(shard, 1, /*now=*/0.0).ok());
  ASSERT_TRUE(Begin(shard, 2, /*now=*/0.0).ok());
  ASSERT_TRUE(Begin(shard, 3, /*now=*/0.0).ok());
  ASSERT_TRUE(shard.AddEdge(2, 0, 1, 1.0, /*now=*/8.0).ok());  // Keep 2 fresh.
  ASSERT_TRUE(shard.Pin(3).ok());  // Idle but pinned.

  shard.EvictIdle(/*now=*/15.0);
  EXPECT_EQ(shard.resident_sessions(), 2u);
  ScoreResult result;
  EXPECT_EQ(shard.Score(1, &result).code(), StatusCode::kNotFound);
  EXPECT_TRUE(shard.Score(2, &result).ok());
  EXPECT_TRUE(shard.Score(3, &result).ok());

  // TTL disabled: sweep is a no-op.
  SessionShard no_ttl(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(no_ttl, 1, 0.0).ok());
  no_ttl.EvictIdle(1e9);
  EXPECT_EQ(no_ttl.resident_sessions(), 1u);
}

TEST_F(ShardTest, RouterPlacesSessionsConsistently) {
  SessionRouter::Options options;
  options.num_shards = 3;
  SessionRouter router(registry_, options, &metrics_);
  ASSERT_EQ(router.num_shards(), 3u);
  for (uint64_t id = 1; id <= 30; ++id) {
    SessionShard& shard = router.ShardFor(id);
    EXPECT_EQ(&shard, &router.ShardFor(id));  // Stable placement.
    ASSERT_TRUE(shard
                    .BeginSession(id, 2, 3, {{0, {1.0f, 0.0f, 0.0f}}}, 0.0)
                    .ok());
  }
  EXPECT_EQ(router.resident_sessions(), 30u);
  // Splitmix64 spreads 30 ids over 3 shards: no shard should be empty.
  for (size_t i = 0; i < router.num_shards(); ++i) {
    EXPECT_GT(router.shard(i).resident_sessions(), 0u) << "shard " << i;
  }
}

TEST_F(ShardTest, MetricsCountLifecycleEvents) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ASSERT_TRUE(shard.AddEdge(1, 1, 0, 2.0, 0.0).ok());
  ASSERT_TRUE(shard.EndSession(1).ok());
  EXPECT_EQ(metrics_.sessions_begun.load(), 1u);
  EXPECT_EQ(metrics_.edges_ingested.load(), 2u);
  EXPECT_EQ(metrics_.sessions_ended.load(), 1u);
}

// --- Logit reuse for a session scored again with no new edge ---------------

// The graph ShardTest::Begin opens, with `edges` appended.
graph::TemporalGraph BeginGraph(
    const std::vector<graph::TemporalEdge>& edges) {
  graph::TemporalGraph g(/*num_nodes=*/2, /*feature_dim=*/3);
  g.SetNodeFeature(0, {1.0f, 0.0f, 0.0f});
  for (const graph::TemporalEdge& e : edges) g.AddEdge(e.src, e.dst, e.time);
  return g;
}

// Makes reuse observable: shifts the model's classifier bias in place, so a
// recomputed logit moves by about `delta` while a reused one keeps its bits.
void ShiftClassifierBias(core::TpGnnModel& model, float delta) {
  for (auto& [name, p] : model.NamedParameters()) {
    if (name == "classifier/bias") p.MutableData()[0] += delta;
  }
}

TEST_F(ShardTest, RescoreWithoutNewEdgeReusesTheLogit) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ASSERT_TRUE(shard.AddEdge(1, 1, 0, 2.0, 0.0).ok());
  ScoreResult first;
  ASSERT_TRUE(shard.Score(1, &first).ok());
  const uint64_t refolds = metrics_.state_refolds.load();
  const uint64_t rescales = metrics_.state_rescales.load();

  ShiftClassifierBias(registry_.initial_model(), 1.0f);
  ScoreResult again;
  ASSERT_TRUE(shard.Score(1, &again).ok());
  EXPECT_EQ(again.logit, first.logit);
  EXPECT_EQ(again.probability, first.probability);
  EXPECT_EQ(again.edges_scored, 2);
  // An unchanged session neither refolds nor rescales, reused or not.
  EXPECT_EQ(metrics_.state_refolds.load(), refolds);
  EXPECT_EQ(metrics_.state_rescales.load(), rescales);
}

TEST_F(ShardTest, NewEdgeMissesTheReusedLogit) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ScoreResult first;
  ASSERT_TRUE(shard.Score(1, &first).ok());

  ShiftClassifierBias(registry_.initial_model(), 1.0f);
  ASSERT_TRUE(shard.AddEdge(1, 1, 0, 2.0, 0.0).ok());
  ScoreResult after_edge;
  ASSERT_TRUE(shard.Score(1, &after_edge).ok());
  EXPECT_EQ(after_edge.edges_scored, 2);
  EXPECT_EQ(after_edge.logit,
            OfflineLogit(registry_.initial_model(),
                         BeginGraph({{0, 1, 1.0}, {1, 0, 2.0}})));
}

TEST_F(ShardTest, RebaseMissesTheReusedLogit) {
  ASSERT_TRUE(registry_.Register("v2", /*seed=*/11).ok());
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ScoreResult first;
  ASSERT_TRUE(shard.Score(1, &first).ok());

  ASSERT_TRUE(
      registry_.Activate("v2", model::SwapPolicy::kImmediateRebase).ok());
  ScoreResult rebased;
  ASSERT_TRUE(shard.Score(1, &rebased).ok());
  EXPECT_EQ(metrics_.version_rebases.load(), 1u);
  core::TpGnnModel& v2 =
      const_cast<core::TpGnnModel&>(registry_.Find("v2")->model());
  EXPECT_EQ(rebased.logit, OfflineLogit(v2, BeginGraph({{0, 1, 1.0}})));
  EXPECT_NE(rebased.logit, first.logit);
}

TEST_F(ShardTest, ForcedRefoldBypassesTheReusedLogit) {
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ScoreResult first;
  ASSERT_TRUE(shard.Score(1, &first).ok());
  const uint64_t refolds = metrics_.state_refolds.load();

  failpoint::ScopedFailpoint fp("shard.rescale", /*probability=*/1.0,
                                failpoint::Kind::kReturnError);
  ScoreResult forced;
  ASSERT_TRUE(shard.Score(1, &forced).ok());
  EXPECT_EQ(fp.fires(), 1u);
  // The replay refolds both SUM components (X and the time accumulator M)
  // and lands on the same bits.
  EXPECT_EQ(metrics_.state_refolds.load(), refolds + 2);
  EXPECT_EQ(forced.logit, first.logit);
}

// Every kernel table computes the same bits, so the reuse key carries no
// SIMD mode: a logit scored in the starting mode and reused after a switch
// equals a fresh offline score in the other mode.
TEST_F(ShardTest, ReusedLogitAfterASimdModeSwitchEqualsAFreshScore) {
  const tensor::SimdMode first_mode = tensor::ActiveSimdMode();
  tensor::SimdMode other = tensor::SimdMode::kScalar;
  if (first_mode == tensor::SimdMode::kScalar) {
    if (tensor::SimdModeSupported(tensor::SimdMode::kAvx2)) {
      other = tensor::SimdMode::kAvx2;
    } else if (tensor::SimdModeSupported(tensor::SimdMode::kNeon)) {
      other = tensor::SimdMode::kNeon;
    } else {
      GTEST_SKIP() << "only the scalar kernel table runs here";
    }
  }
  SessionShard shard(registry_, ShardOptions{}, &metrics_);
  ASSERT_TRUE(Begin(shard, 1).ok());
  ASSERT_TRUE(shard.AddEdge(1, 0, 1, 1.0, 0.0).ok());
  ASSERT_TRUE(shard.AddEdge(1, 1, 0, 2.5, 0.0).ok());
  ScoreResult first;
  ASSERT_TRUE(shard.Score(1, &first).ok());
  const uint64_t refolds = metrics_.state_refolds.load();

  tensor::ScopedSimdMode pin(other);
  ScoreResult reused;
  ASSERT_TRUE(shard.Score(1, &reused).ok());
  EXPECT_EQ(metrics_.state_refolds.load(), refolds);
  EXPECT_EQ(reused.logit, first.logit);
  EXPECT_EQ(reused.logit,
            OfflineLogit(registry_.initial_model(),
                         BeginGraph({{0, 1, 1.0}, {1, 0, 2.5}})));
}

}  // namespace
}  // namespace tpgnn::serve
