// End-to-end parity: scores produced through the full network stack
// (client -> wire protocol -> server -> engine) must be bit-identical to
// the offline forward over the same events. The engine scores a session
// lazily when the queue drains, and a score is a pure function of the
// session's arrival prefix at that moment (ServeParityTest pins this down
// shard-level). So every networked result is checked by serve::ParityOracle
// at its (session, edges_scored), no matter where the server's engine
// pumps landed. Exercised across shard counts, connection counts,
// out-of-order edge arrival, and the overload/retry path.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "net/client.h"
#include "net/server.h"
#include "net_test_util.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "serve/serve_test_util.h"

namespace tpgnn::net {
namespace {

constexpr uint64_t kSeed = 5;

// Every networked result must pass the oracle at its arrival prefix.
void ExpectPrefixParity(serve::ParityOracle& oracle,
                        const std::vector<serve::ScoreResult>& results,
                        size_t expected_count) {
  ASSERT_EQ(results.size(), expected_count);
  for (const serve::ScoreResult& result : results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
}

TEST(LoopbackParityTest, SingleConnectionMatchesInProcessExactly) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/11);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(replayer.events());

  ServerHarness harness({}, {}, kSeed);
  ExpectPrefixParity(oracle,
                     Replay(harness.client_options(), replayer.events()),
                     replayer.num_score_requests());
}

TEST(LoopbackParityTest, SynchronousScoresMatchExactPrefixes) {
  // Synchronous discipline: ship a prefix, then a blocking Score RPC. The
  // drain point is then pinned — the result must be the score of exactly
  // the shipped prefix, not merely some valid prefix.
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/3, /*seed=*/11);
  std::vector<serve::Event> all;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const uint64_t id = i + 1;
    all.push_back(BeginEvent(id, dataset[i].graph));
    for (const graph::TemporalEdge& e : dataset[i].graph.edges()) {
      all.push_back(EdgeEvent(id, e.src, e.dst, e.time));
    }
  }
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(all);

  ServerHarness harness({}, {}, kSeed);
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  for (size_t i = 0; i < dataset.size(); ++i) {
    const uint64_t id = i + 1;
    const graph::TemporalGraph& g = dataset[i].graph;
    ASSERT_TRUE(client.IngestBatch({BeginEvent(id, g)}).ok());
    int64_t shipped = 0;
    for (const graph::TemporalEdge& e : g.edges()) {
      ASSERT_TRUE(client.IngestBatch({EdgeEvent(id, e.src, e.dst, e.time)})
                      .ok());
      ++shipped;
      if (shipped % 5 != 0 && shipped != g.num_edges()) continue;
      serve::ScoreResult result;
      ASSERT_TRUE(client.Score(id, -1, &result).ok());
      ASSERT_EQ(result.edges_scored, shipped);
      const Status parity = oracle.Check(result);
      EXPECT_TRUE(parity.ok()) << parity.ToString();
    }
  }
}

TEST(LoopbackParityTest, ShardAndConnectionCountsNeverChangeABit) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/8, /*seed=*/13);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(replayer.events());

  for (int shards : {1, 3}) {
    for (int connections : {1, 3}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " connections=" + std::to_string(connections));
      serve::EngineOptions engine_options;
      engine_options.num_shards = shards;
      ServerHarness harness(engine_options, {}, kSeed);

      // Session affinity: partition sessions across connections; each
      // session's events stay in order on its own connection.
      std::vector<std::vector<serve::Event>> per_connection(
          static_cast<size_t>(connections));
      for (const serve::Event& event : replayer.events()) {
        per_connection[event.session_id % static_cast<uint64_t>(connections)]
            .push_back(event);
      }
      std::vector<serve::ScoreResult> networked;
      std::mutex mu;
      std::vector<std::thread> threads;
      for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
          std::vector<serve::ScoreResult> results =
              Replay(harness.client_options(),
                     per_connection[static_cast<size_t>(c)]);
          std::lock_guard<std::mutex> lock(mu);
          networked.insert(networked.end(), results.begin(), results.end());
        });
      }
      for (std::thread& t : threads) t.join();

      ExpectPrefixParity(oracle, networked, replayer.num_score_requests());
    }
  }
}

TEST(LoopbackParityTest, OutOfOrderEdgeArrivalMatchesInProcess) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/2, /*seed=*/17);

  // A stream whose edges arrive out of chronological order (reversed
  // pairs), forcing the shard's refold path. The oracle builds each
  // prefix in arrival order, so it sees the same disorder.
  std::vector<serve::Event> events;
  size_t score_requests = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const uint64_t id = i + 1;
    const graph::TemporalGraph& g = dataset[i].graph;
    events.push_back(BeginEvent(id, g));
    const std::vector<graph::TemporalEdge>& edges = g.edges();
    for (size_t e = 0; e + 1 < edges.size(); e += 2) {
      events.push_back(
          EdgeEvent(id, edges[e + 1].src, edges[e + 1].dst, edges[e + 1].time));
      events.push_back(
          EdgeEvent(id, edges[e].src, edges[e].dst, edges[e].time));
      events.push_back(ScoreEvent(id));
      ++score_requests;
    }
    events.push_back(ScoreEvent(id, dataset[i].label));
    ++score_requests;
    events.push_back(EndEvent(id));
  }
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(events);

  ServerHarness harness({}, {}, kSeed);
  const std::vector<serve::ScoreResult> results =
      Replay(harness.client_options(), events);

  EXPECT_GT(harness.engine().metrics().state_refolds.load(), 0u);
  ExpectPrefixParity(oracle, results, score_requests);
}

TEST(LoopbackParityTest, OverloadRetryPathPreservesParity) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/5, /*seed=*/19);
  serve::EventReplayer replayer = MakeReplayer(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(replayer.events());

  // Tiny queue and in-flight caps: the stream cannot ship without hitting
  // OVERLOADED frames, so IngestAll's drain-and-retry loop must fire — and
  // must not duplicate or drop a single event.
  serve::EngineOptions engine_options;
  engine_options.max_pending_scores = 2;
  engine_options.max_batch = 2;
  ServerOptions server_options;
  server_options.max_inflight_scores = 2;
  ServerHarness harness(engine_options, server_options, kSeed);

  ClientOptions client_options = harness.client_options();
  client_options.max_events_per_batch = 16;
  ExpectPrefixParity(oracle, Replay(client_options, replayer.events()),
                     replayer.num_score_requests());
}

}  // namespace
}  // namespace tpgnn::net
