// Server behaviour over real loopback sockets: request/response round
// trips, the METRICS RPC, typed teardown of corrupt streams, the
// per-connection overload path with exact events_applied accounting,
// graceful shutdown draining every pending score, client deadlines, and
// broken-pipe reconnects.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net_test_util.h"
#include "util/net.h"

namespace tpgnn::net {
namespace {

graph::GraphDataset TinyDataset(int count = 1) {
  return data::MakeDataset(data::HdfsSpec(), count, /*seed=*/11);
}

TEST(ServerTest, PingPong) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, IngestBatchAppliesAllEventsAndScores) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  events.push_back(ScoreEvent(1, dataset[0].label));
  events.push_back(EndEvent(1));

  uint64_t applied = 0;
  ASSERT_TRUE(client.IngestBatch(events, &applied).ok());
  EXPECT_EQ(applied, events.size());
  ASSERT_TRUE(client.DrainResults().ok());

  std::vector<serve::ScoreResult> results = client.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].session_id, 1u);
  EXPECT_EQ(results[0].label, dataset[0].label);
  EXPECT_EQ(results[0].edges_scored,
            static_cast<int64_t>(g.edges().size()));
}

TEST(ServerTest, NonFiniteFeatureIsRejectedTypedAndServingContinues) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  const uint64_t bad_event = events.size();
  serve::Event poisoned = BeginEvent(2, g);
  poisoned.features[0].features[0] = std::numeric_limits<float>::quiet_NaN();
  events.push_back(poisoned);
  events.push_back(ScoreEvent(2));

  uint64_t applied = 0;
  Status status = client.IngestBatch(events, &applied);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(applied, bad_event);
  // Counted once, in the engine and in the METRICS payload.
  EXPECT_EQ(harness.engine().metrics().nonfinite_rejections.load(), 1u);
  std::string json;
  ASSERT_TRUE(client.GetMetricsJson(&json).ok());
  EXPECT_NE(json.find("\"nonfinite_rejections\": 1,"), std::string::npos)
      << json;

  // The connection and the good session keep serving.
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.IngestBatch({ScoreEvent(1, dataset[0].label)}).ok());
  ASSERT_TRUE(client.DrainResults().ok());
  std::vector<serve::ScoreResult> results = client.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].session_id, 1u);
  EXPECT_EQ(results[0].edges_scored,
            static_cast<int64_t>(g.edges().size()));
}

TEST(ServerTest, SynchronousScoreRpc) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  ASSERT_TRUE(client.IngestAll(events).ok());

  serve::ScoreResult result;
  ASSERT_TRUE(client.Score(1, dataset[0].label, &result).ok());
  EXPECT_EQ(result.session_id, 1u);
  EXPECT_GT(result.probability, 0.0f);
  EXPECT_LT(result.probability, 1.0f);

  // Scoring an unknown session surfaces the engine's typed error in-band.
  serve::ScoreResult missing;
  Status status = client.Score(999, -1, &missing);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), missing.status.code());
}

TEST(ServerTest, MetricsRpcReturnsEngineAndWireCounters) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  std::string json;
  ASSERT_TRUE(client.GetMetricsJson(&json).ok());
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"frames_received\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"connections_accepted\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos) << json;
}

TEST(ServerTest, MalformedStreamGetsTypedErrorThenClose) {
  ServerHarness harness;
  UniqueFd fd;
  ASSERT_TRUE(
      ConnectTcp("127.0.0.1", harness.port(), /*timeout_ms=*/2000, &fd).ok());

  const uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01,
                             0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  ASSERT_TRUE(SendAll(fd.get(), garbage, sizeof(garbage), 2000).ok());

  // The server answers with a typed ERROR frame...
  std::vector<uint8_t> in;
  Frame frame;
  size_t consumed = 0;
  for (;;) {
    uint8_t buf[512];
    size_t received = 0;
    ASSERT_TRUE(RecvSome(fd.get(), buf, sizeof(buf), 2000, &received).ok());
    in.insert(in.end(), buf, buf + received);
    ASSERT_TRUE(DecodeFrame(in.data(), in.size(), kDefaultMaxPayloadBytes,
                            &frame, &consumed)
                    .ok());
    if (consumed > 0) break;
  }
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.status_code, StatusCode::kDataLoss);

  // ...then closes the stream: the next read hits EOF (mapped to kDataLoss
  // by RecvSome) rather than hanging.
  uint8_t buf[64];
  size_t received = 0;
  Status eof = RecvSome(fd.get(), buf, sizeof(buf), 2000, &received);
  EXPECT_EQ(eof.code(), StatusCode::kDataLoss);
  EXPECT_EQ(harness.engine().metrics().protocol_errors.load(), 1u);
}

TEST(ServerTest, InflightCapSurfacesOverloadWithExactEventsApplied) {
  ServerOptions server_options;
  server_options.max_inflight_scores = 1;
  ServerHarness harness({}, server_options);
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  events.push_back(ScoreEvent(1));
  events.push_back(ScoreEvent(1));  // Over the cap: shed here.
  events.push_back(ScoreEvent(1));

  uint64_t applied = 0;
  Status status = client.IngestBatch(events, &applied);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(applied, 2u);  // Begin + first Score.
  EXPECT_EQ(client.inflight_scores(), 1u);

  // Draining relieves the cap; the retry loop ships the shed tail.
  ASSERT_TRUE(client.DrainResults().ok());
  std::vector<serve::Event> tail(events.begin() + 2, events.end());
  ASSERT_TRUE(client.IngestAll(tail).ok());
  ASSERT_TRUE(client.DrainResults().ok());
  EXPECT_EQ(client.TakeResults().size(), 3u);
}

TEST(ServerTest, GracefulShutdownDeliversEveryPendingResult) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  std::vector<serve::Event> events;
  events.push_back(BeginEvent(1, g));
  for (const graph::TemporalEdge& e : g.edges()) {
    events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
  }
  constexpr int kScores = 8;
  for (int i = 0; i < kScores; ++i) {
    events.push_back(ScoreEvent(1));
  }
  ASSERT_TRUE(client.IngestAll(events).ok());

  // Shutdown must flush the engine and deliver all pipelined SCORE_RESULTs
  // before the GOODBYE.
  ASSERT_TRUE(client.Shutdown().ok());
  std::vector<serve::ScoreResult> results = client.TakeResults();
  EXPECT_EQ(results.size(), static_cast<size_t>(kScores));
  for (const serve::ScoreResult& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
  EXPECT_EQ(client.inflight_scores(), 0u);
  harness.Stop();
  EXPECT_EQ(harness.engine().metrics().scores_completed.load(),
            static_cast<uint64_t>(kScores));
}

TEST(ServerTest, UnresponsivePeerHitsClientDeadline) {
  // A listener that accepts (via the kernel backlog) but never reads or
  // answers: every RPC must fail with kDeadlineExceeded, not hang.
  UniqueFd listen_fd;
  int port = 0;
  ASSERT_TRUE(ListenTcp("127.0.0.1", 0, /*backlog=*/4, &listen_fd, &port).ok());

  ClientOptions options;
  options.port = port;
  options.io_timeout_ms = 100;
  options.reconnect_on_broken_pipe = false;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  Status status = client.Ping();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
}

TEST(ServerTest, ConnectToDeadPortFailsAfterRetries) {
  // Bind-then-close to get a port that refuses connections.
  int dead_port = 0;
  {
    UniqueFd listen_fd;
    ASSERT_TRUE(
        ListenTcp("127.0.0.1", 0, /*backlog=*/1, &listen_fd, &dead_port).ok());
  }
  ClientOptions options;
  options.port = dead_port;
  options.connect_retries = 2;
  options.retry_backoff_ms = 1;
  Client client(options);
  EXPECT_FALSE(client.Connect().ok());
  EXPECT_FALSE(client.connected());
}

TEST(ServerTest, ClientReconnectsOnceOnBrokenPipe) {
  ServerHarness harness;
  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  client.InjectBrokenPipeForTest();
  // The next send hits the wrecked socket, reconnects, and retries.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.connected());

  // Session state lives in the engine, so a reconnected client can keep
  // scoring sessions it began before the break.
  graph::GraphDataset dataset = TinyDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  ASSERT_TRUE(client.IngestBatch({BeginEvent(1, g)}).ok());
  client.InjectBrokenPipeForTest();
  serve::ScoreResult result;
  ASSERT_TRUE(client.Score(1, -1, &result).ok());
  EXPECT_TRUE(result.status.ok());
}

TEST(ServerTest, ServesManyConnectionsConcurrently) {
  ServerHarness harness;
  graph::GraphDataset dataset = TinyDataset(/*count=*/6);

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(harness.client_options());
      if (!client.Connect().ok()) {
        ++failures;
        return;
      }
      for (size_t i = static_cast<size_t>(c); i < dataset.size();
           i += kClients) {
        const uint64_t id = i + 1;
        const graph::TemporalGraph& g = dataset[i].graph;
        std::vector<serve::Event> events;
        events.push_back(BeginEvent(id, g));
        for (const graph::TemporalEdge& e : g.edges()) {
          events.push_back(EdgeEvent(id, e.src, e.dst, e.time));
        }
        events.push_back(ScoreEvent(id, dataset[i].label));
        events.push_back(EndEvent(id));
        if (!client.IngestAll(events).ok() || !client.DrainResults().ok()) {
          ++failures;
          return;
        }
        for (const serve::ScoreResult& result : client.TakeResults()) {
          if (!result.status.ok()) ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(harness.engine().metrics().scores_completed.load(),
            dataset.size());
}

}  // namespace
}  // namespace tpgnn::net
