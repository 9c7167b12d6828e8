// InferenceEngine behaviour: event dispatch, micro-batched scoring in
// request order, bounded-queue backpressure, snapshot loading with config
// validation, and TTL sweeps wired to Begin events.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "nn/checkpoint.h"
#include "serve/inference_engine.h"
#include "serve_test_util.h"
#include "workload/driver.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace tpgnn::serve {
namespace {

TEST(EngineTest, ScoresMatchOfflineForwardInRequestOrder) {
  EngineOptions options;
  options.num_shards = 3;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, options);
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/5, /*seed=*/11);

  for (size_t i = 0; i < dataset.size(); ++i) {
    const graph::TemporalGraph& g = dataset[i].graph;
    const uint64_t id = i + 1;
    ASSERT_TRUE(engine.Ingest(BeginEvent(id, g, 0.0)).ok());
    for (const graph::TemporalEdge& e : g.edges()) {
      ASSERT_TRUE(engine.Ingest(EdgeEvent(id, e.src, e.dst, e.time, 0.0)).ok());
    }
    ASSERT_TRUE(engine.Ingest(ScoreEvent(id, dataset[i].label)).ok());
  }
  EXPECT_EQ(engine.pending_scores(), dataset.size());

  std::vector<ScoreResult> results;
  engine.Flush(&results);
  ASSERT_EQ(results.size(), dataset.size());
  EXPECT_EQ(engine.pending_scores(), 0u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(results[i].session_id, i + 1);  // Request order preserved.
    EXPECT_EQ(results[i].label, dataset[i].label);
    EXPECT_EQ(results[i].logit, OfflineLogit(engine.model(), dataset[i].graph));
  }
  EXPECT_EQ(engine.metrics().scores_completed.load(), dataset.size());
}

TEST(EngineTest, ScoreQueueBackpressure) {
  EngineOptions options;
  options.max_pending_scores = 2;
  options.max_batch = 2;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, options);
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  const graph::TemporalGraph& g = dataset[0].graph;
  ASSERT_TRUE(engine.Ingest(BeginEvent(1, g, 0.0)).ok());

  ASSERT_TRUE(engine.Ingest(ScoreEvent(1)).ok());
  ASSERT_TRUE(engine.Ingest(ScoreEvent(1)).ok());
  Status overloaded = engine.Ingest(ScoreEvent(1));
  EXPECT_EQ(overloaded.code(), StatusCode::kOverloaded);
  EXPECT_EQ(engine.metrics().overload_rejections.load(), 1u);

  // Draining relieves the backpressure.
  std::vector<ScoreResult> results;
  EXPECT_EQ(engine.ProcessPending(&results), 2u);
  ASSERT_TRUE(engine.Ingest(ScoreEvent(1)).ok());
  engine.Flush(&results);
  ASSERT_EQ(results.size(), 3u);
  for (const ScoreResult& r : results) {
    EXPECT_TRUE(r.status.ok());
  }
}

TEST(EngineTest, ProcessPendingHonoursMaxBatch) {
  EngineOptions options;
  options.max_pending_scores = 16;
  options.max_batch = 3;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, options);
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  ASSERT_TRUE(engine.Ingest(BeginEvent(1, dataset[0].graph, 0.0)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Ingest(ScoreEvent(1)).ok());
  }
  std::vector<ScoreResult> results;
  EXPECT_EQ(engine.ProcessPending(&results), 3u);
  EXPECT_EQ(engine.ProcessPending(&results), 3u);
  EXPECT_EQ(engine.ProcessPending(&results), 2u);
  EXPECT_EQ(engine.ProcessPending(&results), 0u);
}

TEST(EngineTest, ScoreForUnknownSessionFailsCleanly) {
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, EngineOptions{});
  EXPECT_EQ(engine.Ingest(ScoreEvent(42)).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.pending_scores(), 0u);  // Nothing enqueued.
}

TEST(EngineTest, EndWithPendingScoreStillScores) {
  // The generator emits Score immediately before End; the pin taken at
  // enqueue must keep the session alive through the End until the score
  // completes.
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, EngineOptions{});
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  const graph::TemporalGraph& g = dataset[0].graph;
  ASSERT_TRUE(engine.Ingest(BeginEvent(1, g, 0.0)).ok());
  ASSERT_TRUE(engine.Ingest(EdgeEvent(1, 0, 1, 1.0, 0.0)).ok());
  ASSERT_TRUE(engine.Ingest(ScoreEvent(1)).ok());
  ASSERT_TRUE(engine.Ingest(EndEvent(1)).ok());
  EXPECT_EQ(engine.resident_sessions(), 1u);  // Deferred removal.

  std::vector<ScoreResult> results;
  engine.Flush(&results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].edges_scored, 1);
  EXPECT_EQ(engine.resident_sessions(), 0u);  // Removal completed at Unpin.
}

TEST(EngineTest, BeginSweepsIdleSessions) {
  EngineOptions options;
  options.idle_ttl_seconds = 5.0;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, options);
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/2, /*seed=*/11);
  ASSERT_TRUE(engine.Ingest(BeginEvent(1, dataset[0].graph, 0.0)).ok());
  EXPECT_EQ(engine.resident_sessions(), 1u);
  // A Begin far in the future sweeps the idle session 1.
  ASSERT_TRUE(engine.Ingest(BeginEvent(2, dataset[1].graph, 100.0)).ok());
  EXPECT_EQ(engine.resident_sessions(), 1u);
  EXPECT_EQ(engine.metrics().sessions_evicted.load(), 1u);
}

TEST(EngineTest, SnapshotRoundTripAndConfigValidation) {
  const std::string path = ::testing::TempDir() + "/tpgnn_serve_snapshot.txt";
  const core::TpGnnConfig config = TinyServeConfig();
  core::TpGnnModel trained(config, /*seed=*/77);
  ASSERT_TRUE(
      nn::SaveParameters(trained, path, core::ConfigMetadata(config)).ok());

  // Matching config: loads, and the engine then scores with the snapshot's
  // parameters.
  InferenceEngine engine(config, /*seed=*/5, EngineOptions{});
  ASSERT_TRUE(engine.LoadSnapshot(path).ok());
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  EXPECT_EQ(OfflineLogit(engine.model(), dataset[0].graph),
            OfflineLogit(trained, dataset[0].graph));

  // Mismatched config: rejected up front with a message naming the field.
  core::TpGnnConfig other = config;
  other.hidden_dim = 16;
  InferenceEngine mismatched(other, /*seed=*/5, EngineOptions{});
  Status status = mismatched.LoadSnapshot(path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("hidden_dim"), std::string::npos)
      << status.ToString();

  // A v1 snapshot (no metadata) skips config validation but still load-time
  // verifies names and shapes.
  const std::string v1 = ::testing::TempDir() + "/tpgnn_serve_snapshot_v1.txt";
  ASSERT_TRUE(nn::SaveParameters(trained, v1).ok());
  InferenceEngine v1_engine(config, /*seed=*/5, EngineOptions{});
  EXPECT_TRUE(v1_engine.LoadSnapshot(v1).ok());
  EXPECT_EQ(mismatched.LoadSnapshot(v1).code(),
            StatusCode::kFailedPrecondition);  // Shape mismatch mid-load.

  std::remove(path.c_str());
  std::remove(v1.c_str());
}

TEST(EngineTest, ReplayedStreamScoresEverySession) {
  // End-to-end: a generated stream through the load driver, backpressure
  // included, as the serving benches and the demo run it. Abandonment is
  // off, so every session ends.
  EngineOptions options;
  options.num_shards = 2;
  options.max_pending_scores = 8;
  options.max_batch = 4;
  InferenceEngine engine(TinyServeConfig(), /*seed=*/5, options);
  workload::WorkloadOptions mix = workload::PaperMixProfile(/*seed=*/11);
  mix.num_sessions = 12;
  for (workload::TenantProfile& tenant : mix.tenants) {
    tenant.abandon_probability = 0.0;
  }
  const workload::Stream stream = workload::WorkloadGenerator::Draw(mix);

  const workload::LoadReport report =
      workload::DriveEngine(engine, stream.events);
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_EQ(report.events_applied, stream.events.size());
  EXPECT_EQ(report.scores_acked, stream.scores);
  ASSERT_EQ(report.results.size(), stream.scores);
  for (const ScoreResult& r : report.results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  EXPECT_EQ(engine.resident_sessions(), 0u);
  EXPECT_EQ(engine.metrics().sessions_begun.load(), mix.num_sessions);
  EXPECT_EQ(engine.metrics().sessions_ended.load(), mix.num_sessions);
}

}  // namespace
}  // namespace tpgnn::serve
