// Seeded chaos: drive a generated PaperMix stream through the full TCP
// stack with workload::DriveWire while failpoints inject partial I/O,
// delays, allocation pressure, queue rejections, scoring failures, and
// corrupted wire frames. The invariants that must survive every schedule:
//
//   * no crash (the whole binary runs under ASan/UBSan and TSan in CI);
//   * every accepted event is scored exactly once — shed events are
//     reported via events_applied and retried, never dropped or doubled;
//   * every successful score passes serve::ParityOracle: bit-identical to
//     the offline forward over its session's arrival prefix. The oracle
//     runs only with every failpoint disarmed, so each test collects its
//     results inside its failpoint scopes and checks them after, reading
//     fire counts through failpoint::FireCount;
//   * serve::Metrics error counters equal the injected-fault fire counts
//     exactly — no fault vanishes, none is double-counted.
//
// Determinism: with a fixed failpoint seed the fire schedule is a pure
// function of per-site evaluation indices, so single-threaded replays are
// bit-reproducible end to end (SameSeedSameOutcome pins this down).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/harness.h"
#include "net_test_util.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "serve/serve_test_util.h"
#include "util/env.h"
#include "util/failpoint.h"
#include "workload/driver.h"

namespace tpgnn::net {
namespace {

using failpoint::Kind;
using failpoint::ScopedFailpoint;

constexpr uint64_t kSeed = 5;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    failpoint::ResetCounters();
    failpoint::SetSeed(1);
  }
  void TearDown() override {
    failpoint::ClearAll();
    failpoint::ResetCounters();
  }
};

// The run must have delivered `expected_count` score requests and one
// result for each, and every OK result must pass the oracle at its arrival
// prefix. `*failed_out` (optional) receives the number of failed results,
// each of which must carry the injected-fault marker of `injected_site`
// (pass nullptr when no failures are expected).
void CheckResults(serve::ParityOracle& oracle,
                  const workload::LoadReport& report, size_t expected_count,
                  const char* injected_site, size_t* failed_out = nullptr) {
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_EQ(report.scores_acked, expected_count);
  EXPECT_EQ(report.results.size(), expected_count);
  size_t failed = 0;
  for (const serve::ScoreResult& result : report.results) {
    if (!result.status.ok()) {
      ++failed;
      ASSERT_NE(injected_site, nullptr) << result.status.ToString();
      EXPECT_NE(result.status.message().find("injected fault"),
                std::string::npos)
          << result.status.ToString();
      EXPECT_NE(result.status.message().find(injected_site),
                std::string::npos)
          << result.status.ToString();
      continue;
    }
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
  if (failed_out != nullptr) {
    *failed_out = failed;
  }
}

// Engine/server options with caps far above what the streams here can
// reach, so genuine backpressure never fires and every overload counter
// increment is attributable to an injected fault.
serve::EngineOptions UncappedEngine() {
  serve::EngineOptions options;
  options.max_pending_scores = 1u << 20;
  return options;
}

ServerOptions UncappedServer() {
  ServerOptions options;
  options.max_inflight_scores = 1u << 20;
  return options;
}

// Injected engine-queue rejections surface as real OVERLOADED frames; the
// client's shed-and-retry path must still deliver every score exactly once,
// and overload_rejections must count exactly the injected fires.
TEST_F(ChaosTest, InjectedOverloadIsRetriedAndAccountedExactly) {
  const workload::Stream stream = MixStream(/*seed=*/11, /*sessions=*/6);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(stream.events);

  ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
  failpoint::SetSeed(41);
  workload::LoadReport report;
  {
    ScopedFailpoint overload("engine.score_enqueue", 0.2, Kind::kReturnError);
    report = workload::DriveWire(harness.client_options(), stream.events);
  }

  CheckResults(oracle, report, stream.scores, nullptr);
  const uint64_t fires = failpoint::FireCount("engine.score_enqueue");
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_GT(fires, 0u);
  EXPECT_EQ(metrics.overload_rejections.load(), fires);
  EXPECT_EQ(metrics.scores_failed.load(), 0u);
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
  EXPECT_EQ(metrics.scores_completed.load(), stream.scores);
}

// Injected scoring failures come back as typed SCORE_RESULT errors naming
// the site; scores_failed counts exactly the fires and the OK remainder is
// still bit-identical to the reference.
TEST_F(ChaosTest, InjectedScoreFailuresAreTypedAndCountedExactly) {
  const workload::Stream stream = MixStream(/*seed=*/11, /*sessions=*/6);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(stream.events);

  ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
  failpoint::SetSeed(43);
  workload::LoadReport report;
  {
    ScopedFailpoint fail("shard.score", 0.3, Kind::kReturnError);
    report = workload::DriveWire(harness.client_options(), stream.events);
  }

  size_t failed = 0;
  CheckResults(oracle, report, stream.scores, "shard.score",
               &failed);
  const uint64_t fires = failpoint::FireCount("shard.score");
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_GT(fires, 0u);
  EXPECT_EQ(failed, fires);
  EXPECT_EQ(metrics.scores_failed.load(), fires);
  EXPECT_EQ(metrics.scores_completed.load(),
            stream.scores - fires);
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
}

// Partial reads/writes, dispatch stalls, and pool allocation failures are
// *recoverable* faults: the stack must absorb them invisibly. Every score
// arrives, bit-identical, and every error counter stays at zero.
TEST_F(ChaosTest, IoFaultScheduleIsInvisibleToResults) {
  const workload::Stream stream = MixStream(/*seed=*/13, /*sessions=*/6);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(stream.events);

  ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
  failpoint::SetSeed(47);
  workload::LoadReport report;
  {
    ScopedFailpoint recv("net.recv", 0.25, Kind::kShortIo, /*arg=*/7);
    ScopedFailpoint send("net.send", 0.25, Kind::kShortIo, /*arg=*/5);
    ScopedFailpoint send_all("net.send_all", 0.2, Kind::kShortIo, /*arg=*/9);
    ScopedFailpoint recv_some("net.recv_some", 0.2, Kind::kShortIo,
                              /*arg=*/11);
    ScopedFailpoint dispatch("server.dispatch", 0.05, Kind::kDelay,
                             /*arg=*/300);
    ScopedFailpoint pool("pool.acquire", 0.3, Kind::kAllocFail);
    report = workload::DriveWire(harness.client_options(), stream.events);
  }

  CheckResults(oracle, report, stream.scores, nullptr);
  // The schedule actually bit: the wire faults and pool faults fired.
  EXPECT_GT(failpoint::FireCount("net.recv") +
                failpoint::FireCount("net.recv_some"),
            0u);
  EXPECT_GT(failpoint::FireCount("net.send") +
                failpoint::FireCount("net.send_all"),
            0u);
  EXPECT_GT(failpoint::FireCount("pool.acquire"), 0u);
  const serve::Metrics& metrics = harness.engine().metrics();
  EXPECT_EQ(metrics.protocol_errors.load(), 0u);
  EXPECT_EQ(metrics.scores_failed.load(), 0u);
  EXPECT_EQ(metrics.overload_rejections.load(), 0u);
}

// Corrupted frames from the client always surface as a typed ERROR + torn
// connection, protocol_errors counts exactly the injected fires, and a
// fresh connection recovers every time.
TEST_F(ChaosTest, CorruptClientFramesAreTypedCountedAndRecoverable) {
  ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
  failpoint::SetSeed(53);

  constexpr uint64_t kCorruptions = 3;
  ClientOptions options = harness.client_options();
  options.reconnect_on_broken_pipe = false;  // Surface every failure.
  for (uint64_t i = 0; i < kCorruptions; ++i) {
    Client client(options);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Ping().ok());
    {
      ScopedFailpoint corrupt("client.corrupt_frame", 1.0, Kind::kCorruptByte,
                              /*arg=*/0, /*max_fires=*/1);
      Status s = client.Ping();
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
      EXPECT_EQ(corrupt.fires(), 1u);
    }
    // The torn connection is gone for good; a new one works immediately.
    Client fresh(options);
    ASSERT_TRUE(fresh.Connect().ok());
    EXPECT_TRUE(fresh.Ping().ok());
  }
  EXPECT_EQ(harness.engine().metrics().protocol_errors.load(), kCorruptions);
  EXPECT_EQ(failpoint::FireCount("client.corrupt_frame"), kCorruptions);
}

// Corruption on the server->client leg is detected by the client decoder as
// a typed kDataLoss; the client tears the stream down and reconnects clean.
TEST_F(ChaosTest, CorruptServerFramesAreDetectedByClient) {
  ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
  failpoint::SetSeed(59);

  Client client(harness.client_options());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
  {
    ScopedFailpoint corrupt("server.corrupt_frame", 1.0, Kind::kCorruptByte,
                            /*arg=*/0, /*max_fires=*/1);
    Status s = client.Ping();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_EQ(corrupt.fires(), 1u);
  }
  EXPECT_FALSE(client.connected());  // Decoder failure tears the stream down.
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
}

// Injected connect flaps are absorbed by Connect()'s own retry loop as long
// as the flap count stays below the attempt budget.
TEST_F(ChaosTest, ConnectFlapsAreAbsorbedByRetries) {
  ServerHarness harness(serve::TinyServeConfig(), kSeed);
  failpoint::SetSeed(61);
  ScopedFailpoint flap("client.connect", 1.0, Kind::kReturnError, /*arg=*/0,
                       /*max_fires=*/2);

  ClientOptions options = harness.client_options();
  options.connect_retries = 3;
  options.retry_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(flap.fires(), 2u);
  EXPECT_TRUE(client.Ping().ok());

  // One more flap than attempts: Connect must fail typed.
  failpoint::SetSeed(61);
  ScopedFailpoint wall("client.connect", 1.0, Kind::kReturnError, /*arg=*/0,
                       /*max_fires=*/4);
  Client blocked(options);
  Status s = blocked.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("client.connect"), std::string::npos);
}

// With a fixed seed and a single-threaded drain (max_batch = 1), the whole
// chaos run is reproducible: the same requests fail, the same fire counts
// accumulate, and the same scores come out bit-identical.
TEST_F(ChaosTest, SameSeedSameOutcome) {
  const workload::Stream stream = MixStream(/*seed=*/17, /*sessions=*/4);

  struct RunRecord {
    std::vector<int> ingest_codes;
    std::vector<std::pair<bool, float>> scores;  // (ok, logit).
    uint64_t enqueue_fires = 0;
    uint64_t score_fires = 0;
    bool operator==(const RunRecord& other) const {
      return ingest_codes == other.ingest_codes && scores == other.scores &&
             enqueue_fires == other.enqueue_fires &&
             score_fires == other.score_fires;
    }
  };

  auto run = [&](uint64_t seed) {
    failpoint::SetSeed(seed);
    ScopedFailpoint enqueue("engine.score_enqueue", 0.25, Kind::kReturnError);
    ScopedFailpoint score("shard.score", 0.25, Kind::kReturnError);
    serve::EngineOptions options = UncappedEngine();
    options.max_batch = 1;  // Sequential drain: deterministic fire order.
    serve::InferenceEngine engine(serve::TinyServeConfig(), kSeed, options);
    RunRecord record;
    std::vector<serve::ScoreResult> results;
    for (const serve::Event& event : stream.events) {
      record.ingest_codes.push_back(
          static_cast<int>(engine.Ingest(event).code()));
    }
    engine.Flush(&results);
    for (const serve::ScoreResult& r : results) {
      record.scores.emplace_back(r.status.ok(), r.logit);
    }
    record.enqueue_fires = enqueue.fires();
    record.score_fires = score.fires();
    return record;
  };

  const RunRecord a = run(71);
  const RunRecord b = run(71);
  const RunRecord c = run(72);
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.enqueue_fires + a.score_fires, 0u);
  EXPECT_FALSE(a == c);  // A different seed draws a different schedule.
}

// The flagship sweep: all fault families at once, across three distinct
// seeds (CI overrides the seed via TPGNN_CHAOS_SEED to widen coverage under
// ASan/UBSan and TSan). Every invariant must hold for every seed.
TEST_F(ChaosTest, SweepAllFaultFamiliesAcrossSeeds) {
  const workload::Stream stream = MixStream(/*seed=*/19, /*sessions=*/6);
  serve::ParityOracle oracle(serve::TinyServeConfig(), kSeed);
  oracle.Record(stream.events);

  std::vector<uint64_t> seeds = {101, 202, 303};
  if (const int64_t env = GetEnvInt("TPGNN_CHAOS_SEED", -1); env >= 0) {
    seeds = {static_cast<uint64_t>(env)};
  }

  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ServerHarness harness(serve::TinyServeConfig(), kSeed, UncappedEngine(),
                        UncappedServer());
    failpoint::SetSeed(seed);
    workload::LoadReport report;
    {
      ScopedFailpoint recv("net.recv", 0.15, Kind::kShortIo, /*arg=*/7);
      ScopedFailpoint send("net.send", 0.15, Kind::kShortIo, /*arg=*/5);
      // Every client write is truncated to 9 bytes: I/O-fault coverage
      // must not depend on how many syscalls the kernel's segment
      // coalescing happens to leave for the probabilistic sites (under
      // sanitizers the timing shifts enough that a low-probability
      // schedule can evaluate a handful of times and never fire).
      ScopedFailpoint send_all("net.send_all", 1.0, Kind::kShortIo,
                               /*arg=*/9);
      ScopedFailpoint recv_some("net.recv_some", 0.1, Kind::kShortIo,
                                /*arg=*/11);
      ScopedFailpoint dispatch("server.dispatch", 0.02, Kind::kDelay,
                               /*arg=*/200);
      ScopedFailpoint pool("pool.acquire", 0.2, Kind::kAllocFail);
      ScopedFailpoint enqueue("engine.score_enqueue", 0.05,
                              Kind::kReturnError);
      ScopedFailpoint begin("shard.begin", 0.2, Kind::kReturnError);
      report = workload::DriveWire(harness.client_options(), stream.events);
    }

    // Exactly once, bit-identical, despite every fault family firing.
    CheckResults(oracle, report, stream.scores, nullptr);
    const serve::Metrics& metrics = harness.engine().metrics();
    EXPECT_EQ(metrics.scores_completed.load(), stream.scores);
    EXPECT_EQ(metrics.scores_failed.load(), 0u);
    EXPECT_EQ(metrics.protocol_errors.load(), 0u);
    // Every overload rejection is attributable to an injected fire — the
    // genuine caps are uncapped in this harness.
    const uint64_t rejections = failpoint::FireCount("engine.score_enqueue") +
                                failpoint::FireCount("shard.begin");
    EXPECT_EQ(metrics.overload_rejections.load(), rejections);
    EXPECT_GT(rejections, 0u);
    // send_all fires on every write, so short-I/O coverage is guaranteed
    // deterministically; recv/send/recv_some stay probabilistic extras.
    EXPECT_GT(failpoint::FireCount("net.send_all"), 0u);
  }
}

}  // namespace
}  // namespace tpgnn::net
