// End-to-end tests of the router tier (DESIGN.md §4.7) against real
// backend servers: protocol transparency (a client cannot tell a router
// from a single serve_server), bitwise score parity with the offline
// forward across sharding, failover, restart, and live migration, and the
// cluster counters/failpoints that make those paths observable and
// testable. Parity is checked by serve::ParityOracle: a score is a pure
// function of its session's arrival prefix, so every networked result — no
// matter which backend produced it, or how many times the session moved —
// must equal the offline forward at its (session, edges_scored).

#include "cluster/router.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster_test_util.h"
#include "data/datasets.h"
#include "net/client.h"
#include "serve/parity_oracle.h"
#include "util/failpoint.h"
#include "workload/driver.h"

namespace tpgnn::cluster {
namespace {

// One resident session per graph (id = index + 1): Begin + all edges, no
// End — sessions stay alive so tests can re-score them after migrations.
std::vector<serve::Event> SessionStream(const graph::GraphDataset& dataset) {
  std::vector<serve::Event> events;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const uint64_t id = i + 1;
    events.push_back(net::BeginEvent(id, dataset[i].graph));
    for (const graph::TemporalEdge& e : dataset[i].graph.edges()) {
      events.push_back(net::EdgeEvent(id, e.src, e.dst, e.time));
    }
  }
  return events;
}

// Synchronously re-scores every session of `dataset` and checks each
// result against the oracle at its full prefix. The proof that a
// migration/failover preserved state exactly: a moved session must score
// the same bits as one that never moved.
void ExpectFullPrefixScores(net::Client& client,
                            const graph::GraphDataset& dataset,
                            serve::ParityOracle& oracle) {
  for (size_t i = 0; i < dataset.size(); ++i) {
    const uint64_t id = i + 1;
    serve::ScoreResult result;
    ASSERT_TRUE(client.Score(id, -1, &result).ok()) << "session " << id;
    ASSERT_EQ(result.edges_scored, dataset[i].graph.num_edges())
        << "session " << id;
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
}

// Sessions begun in `events` owned by backend `name` under the harness
// ring.
std::vector<uint64_t> SessionsOwnedBy(const std::vector<serve::Event>& events,
                                      size_t num_backends,
                                      const std::string& name) {
  HashRing ring = HarnessRing(num_backends);
  std::vector<uint64_t> owned;
  for (const serve::Event& event : events) {
    if (event.kind == serve::Event::Kind::kBegin &&
        *ring.OwnerOf(event.session_id) == name) {
      owned.push_back(event.session_id);
    }
  }
  return owned;
}

// The harness backend owning the most sessions begun in `events` — the
// most interesting one to kill or drain.
size_t BusiestBackend(const std::vector<serve::Event>& events,
                      size_t num_backends) {
  size_t busiest = 0;
  size_t most = 0;
  for (size_t b = 0; b < num_backends; ++b) {
    const size_t owned =
        SessionsOwnedBy(events, num_backends, RouterHarness::BackendName(b))
            .size();
    if (owned > most) {
      most = owned;
      busiest = b;
    }
  }
  return busiest;
}

TEST(RouterTest, SpeaksTheSingleServerProtocolThroughOneBackend) {
  RouterHarness harness(1);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());

  std::string json;
  ASSERT_TRUE(client.GetMetricsJson(&json).ok());
  // The payload is the single-server metrics shape plus a "cluster" block.
  EXPECT_NE(json.find("\"cluster\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backends_up\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backends_merged\": 1"), std::string::npos) << json;
  serve::MetricsSnapshot snap;
  EXPECT_TRUE(serve::ParseMetricsJson(json, &snap).ok());
}

TEST(RouterTest, ProxiesPipelinedStreamBitExactlyAcrossTwoBackends) {
  const workload::Stream stream = net::MixStream(/*seed=*/13, /*sessions=*/8);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(stream.events);

  RouterHarness harness(2);
  const workload::LoadReport report =
      workload::DriveWire(harness.client_options(), stream.events);
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_EQ(report.scores_acked, stream.scores);
  ASSERT_EQ(report.results.size(), stream.scores);
  EXPECT_EQ(ExpectPrefixParityOrTypedFailure(oracle, report.results), 0u)
      << "no failover happened, so no typed failures are admissible";

  // The ring actually sharded the load: every backend that owns sessions
  // under the harness ring saw Begins.
  for (size_t b = 0; b < harness.num_backends(); ++b) {
    const size_t owned =
        SessionsOwnedBy(stream.events, 2, RouterHarness::BackendName(b))
            .size();
    EXPECT_EQ(
        harness.backend(b).engine().metrics().sessions_begun.load(),
        owned);
  }
}

TEST(RouterTest, MultiOwnerBatchKeepsPrefixAckSemantics) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  const graph::TemporalGraph& g = dataset[0].graph;
  ASSERT_GE(g.num_edges(), 2);

  // Two sessions on different backends, so the batch splits into runs
  // that must forward sequentially; a third, never-begun session makes
  // the final run fail on the backend.
  HashRing ring = HarnessRing(2);
  uint64_t a = 0, b = 0, c = 0;
  for (uint64_t id = 1; a == 0 || b == 0; ++id) {
    (*ring.OwnerOf(id) == RouterHarness::BackendName(0) ? a : b) = id;
  }
  c = a + b + 1;  // Distinct from both; never Begun anywhere.

  const auto& e0 = g.edges()[0];
  const auto& e1 = g.edges()[1];
  std::vector<serve::Event> batch = {
      net::BeginEvent(a, g), net::EdgeEvent(a, e0.src, e0.dst, e0.time),
      net::BeginEvent(b, g), net::EdgeEvent(b, e1.src, e1.dst, e1.time),
      net::EdgeEvent(c, e0.src, e0.dst, e0.time)};  // Unknown session.

  RouterHarness harness(2);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  uint64_t applied = 0;
  Status status = client.IngestBatch(batch, &applied);
  // The ack counts a prefix of the ORIGINAL frame even though the router
  // forwarded it as three runs to two backends.
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_EQ(applied, 4u);

  // The applied prefix really landed: both sessions score, bit-equal to
  // the offline forward over the four applied events.
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(
      {batch.begin(), batch.begin() + static_cast<ptrdiff_t>(applied)});
  for (uint64_t id : {a, b}) {
    serve::ScoreResult result;
    ASSERT_TRUE(client.Score(id, -1, &result).ok());
    ASSERT_EQ(result.edges_scored, 1);
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
}

TEST(RouterTest, KillingABackendMidStreamKeepsExactlyOnceAndParity) {
  const workload::Stream stream =
      net::MixStream(/*seed=*/11, /*sessions=*/10);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(stream.events);

  RouterHarness harness(2);
  const size_t victim = BusiestBackend(stream.events, 2);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());

  // Ship ~60% of the stream, SIGKILL the busiest backend, ship the rest.
  const std::vector<serve::Event>& events = stream.events;
  const size_t cut = events.size() * 6 / 10;
  ASSERT_TRUE(client
                  .IngestAll({events.begin(),
                              events.begin() + static_cast<ptrdiff_t>(cut)})
                  .ok());
  harness.KillBackend(victim);
  ASSERT_TRUE(client
                  .IngestAll({events.begin() + static_cast<ptrdiff_t>(cut),
                              events.end()})
                  .ok());
  ASSERT_TRUE(client.DrainResults().ok());

  // Exactly-once: every score request resolves exactly once — as a result
  // or a typed kDataLoss — never dropped, never duplicated.
  std::vector<serve::ScoreResult> results = client.TakeResults();
  EXPECT_EQ(results.size(), stream.scores);
  const size_t failed = ExpectPrefixParityOrTypedFailure(oracle, results);
  client.Close();
  harness.Stop();

  const ClusterCounters& counters = harness.router().counters();
  EXPECT_GE(counters.backend_failovers, 1u);
  EXPECT_GE(counters.sessions_replayed + counters.scores_failed_over +
                counters.scores_reissued,
            1u)
      << "the kill left no trace in the failover counters";
  EXPECT_LE(failed, results.size());  // Parity already checked per result.
}

TEST(RouterTest, KilledBackendRestartsRejoinsAndServesBitExactly) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/11);
  std::vector<serve::Event> events = SessionStream(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(events);

  RouterHarness harness(2);
  const size_t victim = BusiestBackend(events, 2);
  const int victim_port = harness.backend(victim).port();
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.IngestAll(events).ok());
  ExpectFullPrefixScores(client, dataset, oracle);

  // Crash: the victim's sessions journal-replay onto the survivor and
  // keep scoring the same bits.
  harness.KillBackend(victim);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (harness.router().connected_backends() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ExpectFullPrefixScores(client, dataset, oracle);

  // Restart on the SAME port, as a supervisor would: the router's dial
  // loop rejoins it, the ring rebalances, and sessions snapshot-migrate
  // back — still bit-exact.
  net::ServerOptions same_port;
  same_port.port = victim_port;
  net::ServerHarness replacement(serve::TinyServeConfig(), kClusterSeed, {},
                                 same_port);
  harness.WaitForConnectedBackends(2);
  ExpectFullPrefixScores(client, dataset, oracle);
  EXPECT_GT(replacement.engine().metrics().sessions_imported.load(), 0u);

  client.Close();
  harness.Stop();
  EXPECT_GE(harness.router().counters().backend_failovers, 1u);
  EXPECT_GE(harness.router().counters().sessions_replayed, 1u);
  EXPECT_GE(harness.router().counters().sessions_migrated, 1u);
}

TEST(RouterTest, DrainAndUndrainMigrateSessionsBitExactly) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/8, /*seed=*/13);
  std::vector<serve::Event> events = SessionStream(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(events);

  // Hand-polled: DrainBackend/UndrainBackend are poll-thread-only, so the
  // test thread IS the poll thread and client work rides a side thread.
  RouterHarness harness(2, {}, /*threaded=*/false);
  harness.PumpUntil(
      [&] { return harness.router().connected_backends() == 2; });

  net::Client client(harness.client_options());
  std::atomic<bool> done{false};
  auto on_worker = [&](const std::function<void()>& work) {
    done = false;
    std::thread worker([&] {
      work();
      done = true;
    });
    harness.PumpUntil([&] { return done.load(); });
    worker.join();
  };

  on_worker([&] {
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.IngestAll(events).ok());
    ExpectFullPrefixScores(client, dataset, oracle);
  });

  const size_t victim = BusiestBackend(events, 2);
  const std::string victim_name = RouterHarness::BackendName(victim);
  const size_t owned = SessionsOwnedBy(events, 2, victim_name).size();
  ASSERT_GT(owned, 0u);

  // Drain: every session the victim owns moves away as a fold-state
  // snapshot (SESSION_EXPORT/SESSION_IMPORT), not a replay.
  ASSERT_TRUE(harness.router().DrainBackend(victim_name).ok());
  EXPECT_EQ(harness.router().counters().sessions_migrated, owned);
  EXPECT_EQ(harness.router().counters().migration_failures, 0u);
  EXPECT_EQ(harness.router().counters().sessions_replayed, 0u);
  EXPECT_EQ(
      harness.backend(victim).engine().metrics().sessions_exported.load(),
      owned);
  EXPECT_EQ(
      harness.backend(1 - victim).engine().metrics().sessions_imported.load(),
      owned);

  // Migrated sessions score the same bits as if they had never moved.
  on_worker([&] { ExpectFullPrefixScores(client, dataset, oracle); });

  // Undrain: the ring re-adds the backend and the sessions snapshot back.
  ASSERT_TRUE(harness.router().UndrainBackend(victim_name).ok());
  EXPECT_EQ(harness.router().counters().sessions_migrated, 2 * owned);
  EXPECT_EQ(harness.router().counters().migration_failures, 0u);
  on_worker([&] { ExpectFullPrefixScores(client, dataset, oracle); });

  on_worker([&] { client.Close(); });
  harness.Stop();
}

TEST(RouterTest, ShedsWithOverloadedWhenNoBackendIsUp) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/1, /*seed=*/11);
  // A port with nothing behind it: start a real server, note its port,
  // stop it.
  int dead_port = 0;
  {
    net::ServerHarness ghost(serve::TinyServeConfig(), kClusterSeed);
    dead_port = ghost.port();
  }

  RouterOptions options;
  options.registry.reconnect_backoff_seconds = 0.05;
  options.registry.reconnect_backoff_max_seconds = 0.1;
  Router router({{"ghost", "127.0.0.1", dead_port}}, options);
  ASSERT_TRUE(router.Start().ok());

  std::atomic<bool> done{false};
  Status ingest_status;
  uint64_t applied = 99;
  std::thread worker([&] {
    net::ClientOptions client_options;
    client_options.port = router.port();
    net::Client client(client_options);
    if (client.Connect().ok()) {
      ingest_status =
          client.IngestBatch({net::BeginEvent(1, dataset[0].graph)}, &applied);
    }
    client.Close();
    done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    router.PollOnce(5);
  }
  worker.join();

  // The standard retryable reply, exactly like an overloaded single
  // server: nothing applied, typed kOverloaded.
  EXPECT_EQ(ingest_status.code(), StatusCode::kOverloaded)
      << ingest_status.ToString();
  EXPECT_EQ(applied, 0u);

  router.RequestShutdown();
  while (router.PollOnce(5)) {
  }
  EXPECT_GE(router.counters().overloads_shed, 1u);
  EXPECT_EQ(router.counters().backend_connects, 0u);
}

TEST(RouterTest, MetricsMergeAcrossBackends) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/13);
  std::vector<serve::Event> events = SessionStream(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(events);

  RouterHarness harness(2);
  net::Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.IngestAll(events).ok());
  ExpectFullPrefixScores(client, dataset, oracle);

  std::string json;
  ASSERT_TRUE(client.GetMetricsJson(&json).ok());
  EXPECT_NE(json.find("\"backends_merged\": 2"), std::string::npos) << json;

  // The merged payload parses with the standard parser, and the engine
  // counters are the SUM over backends: all 6 sessions and all 6 scores
  // are visible through one RPC no matter which backend served them.
  serve::MetricsSnapshot snap;
  ASSERT_TRUE(serve::ParseMetricsJson(json, &snap).ok());
  EXPECT_EQ(snap.sessions_begun, dataset.size());
  EXPECT_EQ(snap.scores_completed, dataset.size());
  EXPECT_EQ(snap.score_latency.count, dataset.size());
}

TEST(RouterTest, ConnectFailpointFlapsDialsUntilCleared) {
  RouterOptions options;
  options.registry.reconnect_backoff_seconds = 0.05;
  options.registry.reconnect_backoff_max_seconds = 0.1;
  RouterHarness harness(1, options, /*threaded=*/false);
  {
    failpoint::ScopedFailpoint fp("router.backend_connect", 1.0,
                                  failpoint::Kind::kReturnError);
    harness.PumpUntil([&] { return fp.fires() >= 3; });
    EXPECT_EQ(harness.router().connected_backends(), 0u);
    EXPECT_EQ(harness.router().counters().backend_connects, 0u);
  }
  // Failpoint gone: the next allowed dial succeeds.
  harness.PumpUntil(
      [&] { return harness.router().connected_backends() == 1; });
  EXPECT_GE(harness.router().counters().backend_connects, 1u);
  harness.Stop();
}

TEST(RouterTest, ProbeFailpointForcesFailoverThenRecovery) {
  RouterOptions options;
  options.registry.probe_interval_seconds = 0.05;
  options.registry.probe_timeout_seconds = 0.1;
  options.registry.probe_failures_to_down = 2;
  options.registry.reconnect_backoff_seconds = 0.05;
  options.registry.reconnect_backoff_max_seconds = 0.1;
  RouterHarness harness(1, options, /*threaded=*/false);
  harness.PumpUntil(
      [&] { return harness.router().connected_backends() == 1; });

  {
    // Every outstanding probe is treated as missed; the second
    // consecutive miss crosses probe_failures_to_down and the backend —
    // although perfectly healthy — is failed over.
    failpoint::ScopedFailpoint fp("router.probe", 1.0,
                                  failpoint::Kind::kReturnError);
    harness.PumpUntil(
        [&] { return harness.router().counters().backend_failovers >= 1; });
    EXPECT_GE(harness.router().counters().probes_missed, 2u);
  }
  // Cleared: the dial loop brings the backend back and probes stay clean.
  harness.PumpUntil(
      [&] { return harness.router().connected_backends() == 1; });
  harness.Stop();
  EXPECT_GE(harness.router().counters().probes_sent, 2u);
  EXPECT_GE(harness.router().counters().backend_connects, 2u);
}

TEST(RouterTest, MigrateFailpointFailsOneMoveButKeepsServing) {
  graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), /*count=*/8, /*seed=*/13);
  std::vector<serve::Event> events = SessionStream(dataset);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kClusterSeed);
  oracle.Record(events);

  RouterHarness harness(2, {}, /*threaded=*/false);
  harness.PumpUntil(
      [&] { return harness.router().connected_backends() == 2; });

  net::Client client(harness.client_options());
  std::atomic<bool> done{false};
  auto on_worker = [&](const std::function<void()>& work) {
    done = false;
    std::thread worker([&] {
      work();
      done = true;
    });
    harness.PumpUntil([&] { return done.load(); });
    worker.join();
  };
  on_worker([&] {
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.IngestAll(events).ok());
  });

  const size_t victim = BusiestBackend(events, 2);
  const std::string victim_name = RouterHarness::BackendName(victim);
  const size_t owned = SessionsOwnedBy(events, 2, victim_name).size();
  ASSERT_GT(owned, 1u) << "need at least two sessions on the victim";

  // Exactly one injected migration failure: that session's move aborts
  // before its export (nothing torn down), every other session migrates.
  {
    failpoint::ScopedFailpoint fp("router.migrate", 1.0,
                                  failpoint::Kind::kReturnError, /*arg=*/0,
                                  /*max_fires=*/1);
    ASSERT_TRUE(harness.router().DrainBackend(victim_name).ok());
    EXPECT_EQ(fp.fires(), 1u);
  }
  EXPECT_EQ(harness.router().counters().migration_failures, 1u);
  EXPECT_EQ(harness.router().counters().sessions_migrated, owned - 1);

  // The failed session stayed on the (draining but connected) victim and
  // still serves; the moved ones serve from the other side — all of them
  // bit-exact. The oracle checks only with the failpoint disarmed.
  on_worker([&] {
    ExpectFullPrefixScores(client, dataset, oracle);
    client.Close();
  });
  harness.Stop();
}

}  // namespace
}  // namespace tpgnn::cluster
