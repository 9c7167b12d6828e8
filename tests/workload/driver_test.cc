// The load driver's accounting on its three targets: an in-process engine,
// a server and a router. However often the target sheds load, every Score
// request in an acked prefix comes back as exactly one result, and every
// served score passes serve::ParityOracle.

#include "workload/driver.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/cluster_test_util.h"
#include "net/harness.h"
#include "serve/inference_engine.h"
#include "serve/parity_oracle.h"
#include "serve/serve_test_util.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace tpgnn::workload {
namespace {

// The model every target serves, RouterHarness backends included.
constexpr uint64_t kModelSeed = cluster::kClusterSeed;

// Exactly once over the wire: every acked Score request resolved once,
// and every result passes the oracle.
void ExpectWireAccounting(const Stream& stream, const LoadReport& report) {
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_EQ(report.events_applied, stream.events.size());
  EXPECT_EQ(report.scores_acked, stream.scores);
  ASSERT_EQ(report.results.size(), report.scores_acked);
  EXPECT_EQ(report.score_latency.count, report.results.size());
  serve::ParityOracle oracle(serve::TinyServeConfig(), kModelSeed);
  oracle.Record(stream.events);
  for (const serve::ScoreResult& result : report.results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const Status parity = oracle.Check(result);
    EXPECT_TRUE(parity.ok()) << parity.ToString();
  }
}

TEST(DriverTest, EngineReturnsOneResultPerScoreAndEndsEverySession) {
  WorkloadOptions mix = PaperMixProfile(/*seed=*/23);
  mix.num_sessions = 16;
  for (TenantProfile& tenant : mix.tenants) {
    tenant.abandon_probability = 0.0;  // Every session ends.
  }
  const Stream stream = WorkloadGenerator::Draw(mix);
  serve::EngineOptions options;
  options.max_pending_scores = 4;
  serve::InferenceEngine engine(serve::TinyServeConfig(), kModelSeed,
                                options);

  const LoadReport report = DriveEngine(engine, stream.events);
  EXPECT_EQ(report.errors, 0u) << report.first_error;
  EXPECT_GT(report.overloads, 0u);  // The 4-deep queue filled and pumped.
  EXPECT_EQ(report.events_applied, stream.events.size());
  EXPECT_EQ(report.scores_acked, stream.scores);
  EXPECT_EQ(report.results.size(), stream.scores);
  EXPECT_EQ(report.scores_ok(), stream.scores);
  // One sample per Ingest call: a retried event counts once per call.
  EXPECT_EQ(report.ingest_latency.count,
            stream.events.size() + report.overloads);
  EXPECT_EQ(report.score_latency.count, stream.scores);
  EXPECT_EQ(engine.metrics().sessions_ended.load(), mix.num_sessions);
  EXPECT_EQ(engine.resident_sessions(), 0u);
}

TEST(DriverTest, ServerOverloadIsRetriedAndEveryAckedScoreResolves) {
  const Stream stream = net::MixStream(/*seed=*/23, /*sessions=*/12);
  net::ServerOptions server_options;
  server_options.max_inflight_scores = 2;
  net::ServerHarness server(serve::TinyServeConfig(), kModelSeed, {},
                            server_options);

  const LoadReport report =
      DriveWire(server.client_options(), stream.events, /*connections=*/2);
  EXPECT_GT(report.overloads, 0u);
  ExpectWireAccounting(stream, report);
}

TEST(DriverTest, RouterOfTwoBackendsResolvesEveryAckedScore) {
  const Stream stream = net::MixStream(/*seed=*/23, /*sessions=*/12);
  cluster::RouterHarness cluster(/*num_backends=*/2);

  ExpectWireAccounting(stream, DriveWire(cluster.client_options(),
                                         stream.events, /*connections=*/3));
}

}  // namespace
}  // namespace tpgnn::workload
