// serve::ParityOracle, the one reference every serving bench and network
// or cluster test checks scores against. The oracle itself is pinned to an
// in-process InferenceEngine scored synchronously after every Begin and
// every edge — the per-prefix table those benches and tests used to build
// by hand — across updaters, time bases and arrival orders. The failure
// contract: a one-bit difference, an unknown session or a prefix beyond
// what arrived fails kDataLoss naming the session and the prefix, and an
// armed failpoint fails kFailedPrecondition without running the forward.

#include "serve/parity_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "serve/inference_engine.h"
#include "serve_test_util.h"
#include "tensor/kernels.h"
#include "util/failpoint.h"

namespace tpgnn::serve {
namespace {

constexpr uint64_t kSeed = 5;

// Begins every session of `dataset` (id = index + 1), then deals their
// chronological edges round-robin so sessions interleave. `out_of_order`
// swaps each adjacent pair of a session's edges, so arrivals fall below
// the session's running max time.
std::vector<Event> InterleavedStream(const graph::GraphDataset& dataset,
                                     bool out_of_order) {
  std::vector<Event> events;
  std::vector<std::vector<graph::TemporalEdge>> arrivals;
  size_t longest = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    events.push_back(BeginEvent(i + 1, dataset[i].graph));
    std::vector<graph::TemporalEdge> edges =
        dataset[i].graph.ChronologicalEdges();
    for (size_t e = 0; out_of_order && e + 1 < edges.size(); e += 2) {
      std::swap(edges[e], edges[e + 1]);
    }
    longest = std::max(longest, edges.size());
    arrivals.push_back(std::move(edges));
  }
  for (size_t k = 0; k < longest; ++k) {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (k < arrivals[i].size()) {
        const graph::TemporalEdge& e = arrivals[i][k];
        events.push_back(EdgeEvent(i + 1, e.src, e.dst, e.time));
      }
    }
  }
  return events;
}

// Feeds `events` to `engine`, scoring the event's session synchronously
// after each one; returns every result, each asserted OK at exactly the
// number of edges its session had received.
std::vector<ScoreResult> ScoreEveryPrefix(InferenceEngine& engine,
                                          const std::vector<Event>& events) {
  std::vector<ScoreResult> scored;
  std::map<uint64_t, int64_t> arrived;
  for (const Event& event : events) {
    EXPECT_TRUE(engine.Ingest(event).ok());
    if (event.kind == Event::Kind::kEdge) {
      ++arrived[event.session_id];
    }
    EXPECT_TRUE(engine.Ingest(ScoreEvent(event.session_id)).ok());
    std::vector<ScoreResult> results;
    engine.Flush(&results);
    EXPECT_EQ(results.size(), 1u);
    for (const ScoreResult& result : results) {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(result.edges_scored, arrived[event.session_id]);
      scored.push_back(result);
    }
  }
  return scored;
}

float FlipLowestBit(float value) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

graph::GraphDataset OracleDataset() {
  return data::MakeDataset(data::HdfsSpec(), /*count=*/4, /*seed=*/11);
}

TEST(ParityOracleTest, AcceptsWhatAnInProcessEngineScoresAtEveryPrefix) {
  const graph::GraphDataset dataset = OracleDataset();
  for (const core::Updater updater :
       {core::Updater::kSum, core::Updater::kGru}) {
    for (const core::TimeBasis basis :
         {core::TimeBasis::kAbsolute, core::TimeBasis::kInvariant}) {
      for (const bool out_of_order : {false, true}) {
        SCOPED_TRACE(std::string(updater == core::Updater::kSum ? "sum"
                                                                : "gru") +
                     (basis == core::TimeBasis::kAbsolute ? " absolute"
                                                          : " invariant") +
                     (out_of_order ? " out-of-order" : " in-order"));
        core::TpGnnConfig config = TinyServeConfig();
        config.updater = updater;
        config.time_basis = basis;
        const std::vector<Event> events =
            InterleavedStream(dataset, out_of_order);
        InferenceEngine engine(config, kSeed, {});
        ParityOracle oracle(config, kSeed);
        oracle.Record(events);

        const std::vector<ScoreResult> scored =
            ScoreEveryPrefix(engine, events);
        ASSERT_EQ(scored.size(), events.size());
        for (const ScoreResult& result : scored) {
          const Status parity = oracle.Check(result);
          EXPECT_TRUE(parity.ok()) << parity.ToString();
        }
        if (out_of_order) {
          // The disorder reached the shard: it refolded.
          EXPECT_GT(engine.metrics().state_refolds.load(), 0u);
        }
      }
    }
  }
}

// Every kernel table computes the same bits (tensor/kernels.h), so scores
// served in AVX2 mode pass an oracle whose offline forwards ran in scalar
// mode.
TEST(ParityOracleTest, ScoresServedInAvx2ModeEqualTheScalarModeForward) {
  if (!tensor::SimdModeSupported(tensor::SimdMode::kAvx2)) {
    GTEST_SKIP() << "no AVX2 table on this build and CPU";
  }
  const graph::GraphDataset dataset = OracleDataset();
  for (const core::Updater updater :
       {core::Updater::kSum, core::Updater::kGru}) {
    for (const core::TimeBasis basis :
         {core::TimeBasis::kAbsolute, core::TimeBasis::kInvariant}) {
      core::TpGnnConfig config = TinyServeConfig();
      config.updater = updater;
      config.time_basis = basis;
      const std::vector<Event> events =
          InterleavedStream(dataset, /*out_of_order=*/true);
      std::vector<ScoreResult> scored;
      {
        tensor::ScopedSimdMode avx2(tensor::SimdMode::kAvx2);
        InferenceEngine engine(config, kSeed, {});
        scored = ScoreEveryPrefix(engine, events);
      }
      tensor::ScopedSimdMode scalar(tensor::SimdMode::kScalar);
      ParityOracle oracle(config, kSeed);
      oracle.Record(events);
      ASSERT_EQ(scored.size(), events.size());
      for (const ScoreResult& result : scored) {
        const Status parity = oracle.Check(result);
        EXPECT_TRUE(parity.ok()) << parity.ToString();
      }
    }
  }
}

// One in-process score of session 1 after three of its edges, with the
// oracle that recorded its whole stream.
class ParityOracleFailureTest : public ::testing::Test {
 protected:
  ParityOracleFailureTest() : oracle_(TinyServeConfig(), kSeed) {}

  void SetUp() override {
    const graph::GraphDataset dataset = OracleDataset();
    const graph::TemporalGraph& g = dataset[0].graph;
    std::vector<Event> events = {BeginEvent(1, g)};
    for (const graph::TemporalEdge& e : g.ChronologicalEdges()) {
      events.push_back(EdgeEvent(1, e.src, e.dst, e.time));
    }
    arrived_ = g.num_edges();
    oracle_.Record(events);

    InferenceEngine engine(TinyServeConfig(), kSeed, {});
    const std::vector<ScoreResult> scored = ScoreEveryPrefix(
        engine, {events.begin(), events.begin() + 1 + kPrefix});
    ASSERT_EQ(scored.size(), static_cast<size_t>(1 + kPrefix));
    served_ = scored.back();
    ASSERT_EQ(served_.edges_scored, kPrefix);
  }

  static constexpr int64_t kPrefix = 3;
  ParityOracle oracle_;
  ScoreResult served_;
  int64_t arrived_ = 0;
};

TEST_F(ParityOracleFailureTest, ServedScoreIsAcceptedAgainAndAgain) {
  EXPECT_TRUE(oracle_.Check(served_).ok());
  EXPECT_TRUE(oracle_.Check(served_).ok());
}

TEST_F(ParityOracleFailureTest, FlippedLogitBitFailsDataLossNamingThePrefix) {
  ScoreResult flipped = served_;
  flipped.logit = FlipLowestBit(served_.logit);
  const Status status = oracle_.Check(flipped);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("session 1 prefix 3"), std::string::npos)
      << status.ToString();
}

TEST_F(ParityOracleFailureTest, FlippedProbabilityBitFailsDataLoss) {
  ScoreResult flipped = served_;
  flipped.probability = FlipLowestBit(served_.probability);
  const Status status = oracle_.Check(flipped);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("session 1 prefix 3"), std::string::npos)
      << status.ToString();
}

TEST_F(ParityOracleFailureTest, UnknownSessionFailsDataLoss) {
  ScoreResult stranger = served_;
  stranger.session_id = 99;
  const Status status = oracle_.Check(stranger);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("session 99"), std::string::npos)
      << status.ToString();

  // Edges of a session whose Begin was never recorded leave it unknown.
  Event edge;
  edge.kind = Event::Kind::kEdge;
  edge.session_id = 98;
  oracle_.Record({edge});
  stranger.session_id = 98;
  stranger.edges_scored = 0;
  EXPECT_EQ(oracle_.Check(stranger).code(), StatusCode::kDataLoss);
}

TEST_F(ParityOracleFailureTest, PrefixBeyondArrivedEdgesFailsDataLoss) {
  ScoreResult ahead = served_;
  ahead.edges_scored = arrived_ + 1;
  const Status status = oracle_.Check(ahead);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("prefix " + std::to_string(arrived_ + 1)),
            std::string::npos)
      << status.ToString();
  ahead.edges_scored = -1;
  EXPECT_EQ(oracle_.Check(ahead).code(), StatusCode::kDataLoss);
}

TEST_F(ParityOracleFailureTest, ArmedFailpointFailsPreconditionWithoutFiring) {
  {
    failpoint::ScopedFailpoint pool("pool.acquire", 1.0,
                                    failpoint::Kind::kAllocFail);
    const Status status = oracle_.Check(served_);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_EQ(pool.fires(), 0u) << "the reference forward ran while armed";
  }
  EXPECT_TRUE(oracle_.Check(served_).ok());
}

TEST_F(ParityOracleFailureTest, FailedResultCarriesNoScore) {
  ScoreResult failed = served_;
  failed.status = Status::Internal("scoring failed");
  EXPECT_EQ(oracle_.Check(failed).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tpgnn::serve
