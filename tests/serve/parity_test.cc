// The serving subsystem's central correctness contract: scoring a session
// built edge-by-edge through SessionShard is bit-identical to
// TpGnnModel::ForwardLogit over the fully built graph — across updaters,
// readouts, edge aggregations, ablation variants, time normalization on and
// off, with the buffer pool on and off, at every mid-stream prefix, and
// under out-of-order edge arrival.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "model/registry.h"
#include "serve/session_shard.h"
#include "serve_test_util.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/buffer_pool.h"

namespace tpgnn::serve {
namespace {

class ScopedPoolEnabled {
 public:
  explicit ScopedPoolEnabled(bool enabled)
      : previous_(util::BufferPoolEnabled()) {
    util::SetBufferPoolEnabled(enabled);
  }
  ~ScopedPoolEnabled() { util::SetBufferPoolEnabled(previous_); }

 private:
  bool previous_;
};

struct NamedConfig {
  std::string name;
  core::TpGnnConfig config;
};

std::vector<NamedConfig> ParityConfigs() {
  std::vector<NamedConfig> configs;
  const core::TpGnnConfig base = TinyServeConfig();
  for (const core::Updater updater :
       {core::Updater::kSum, core::Updater::kGru}) {
    const std::string u = updater == core::Updater::kSum ? "sum" : "gru";
    core::TpGnnConfig c = base;
    c.updater = updater;
    configs.push_back({u + "_normalized", c});
    c.normalize_time = false;
    configs.push_back({u + "_raw_time", c});
  }
  core::TpGnnConfig last = base;
  last.extractor_readout = core::ExtractorReadout::kLastState;
  configs.push_back({"sum_last_state", last});
  core::TpGnnConfig concat = base;
  concat.edge_agg = core::EdgeAgg::kConcatenation;
  configs.push_back({"sum_concat_agg", concat});
  core::TpGnnConfig transformer = base;
  transformer.global_module = core::GlobalModule::kTransformer;
  configs.push_back({"sum_transformer", transformer});
  core::TpGnnConfig unstable = base;
  unstable.stabilize_sum = false;
  configs.push_back({"sum_unstabilized", unstable});
  core::TpGnnConfig time2vec = base;
  time2vec.variant = core::Variant::kTime2Vec;
  configs.push_back({"variant_time2vec", time2vec});
  core::TpGnnConfig no_propagation = base;
  no_propagation.variant = core::Variant::kWithoutTem;
  configs.push_back({"variant_without_tem", no_propagation});
  // Invariant time basis: the serving-oriented reformulation must hold the
  // same bitwise contract against its own offline forward.
  for (const core::Updater updater :
       {core::Updater::kSum, core::Updater::kGru}) {
    const std::string u = updater == core::Updater::kSum ? "sum" : "gru";
    core::TpGnnConfig c = base;
    c.updater = updater;
    c.time_basis = core::TimeBasis::kInvariant;
    configs.push_back({u + "_invariant", c});
    c.normalize_time = false;
    configs.push_back({u + "_invariant_raw_time", c});
  }
  core::TpGnnConfig inv_unstable = base;
  inv_unstable.time_basis = core::TimeBasis::kInvariant;
  inv_unstable.stabilize_sum = false;
  configs.push_back({"sum_invariant_unstabilized", inv_unstable});
  core::TpGnnConfig inv_time2vec = base;
  inv_time2vec.time_basis = core::TimeBasis::kInvariant;
  inv_time2vec.variant = core::Variant::kTime2Vec;
  configs.push_back({"invariant_time2vec", inv_time2vec});
  return configs;
}

graph::GraphDataset ParityDataset() {
  return data::MakeDataset(data::HdfsSpec(), /*count=*/6, /*seed=*/33);
}

// The bitwise serving contract must hold in every SIMD mode this machine can
// run: serving and the offline forward share the step functions and kernel
// table, so whatever ISA is selected, both sides produce the same bits.
std::vector<tensor::SimdMode> ParityModes() {
  std::vector<tensor::SimdMode> modes = {tensor::SimdMode::kScalar};
  if (tensor::SimdModeSupported(tensor::SimdMode::kAvx2)) {
    modes.push_back(tensor::SimdMode::kAvx2);
  }
  if (tensor::SimdModeSupported(tensor::SimdMode::kNeon)) {
    modes.push_back(tensor::SimdMode::kNeon);
  }
  return modes;
}

// Streams every dataset graph through a fresh session and compares the
// final score against the offline forward, bitwise.
void ExpectFinalScoreParity(const NamedConfig& named, bool pool_enabled) {
  ScopedPoolEnabled pool(pool_enabled);
  model::ModelRegistry registry(named.config, /*seed=*/5);
  core::TpGnnModel& model = registry.initial_model();
  SessionShard shard(registry, ShardOptions{}, /*metrics=*/nullptr);
  graph::GraphDataset dataset = ParityDataset();
  for (size_t i = 0; i < dataset.size(); ++i) {
    const graph::TemporalGraph& g = dataset[i].graph;
    const uint64_t id = 100 + i;
    ASSERT_TRUE(shard
                    .BeginSession(id, g.num_nodes(), g.feature_dim(),
                                  AllNodeFeatures(g), /*now=*/0.0)
                    .ok());
    for (const graph::TemporalEdge& e : g.edges()) {
      ASSERT_TRUE(shard.AddEdge(id, e.src, e.dst, e.time, /*now=*/0.0).ok());
    }
    ScoreResult result;
    ASSERT_TRUE(shard.Score(id, &result).ok());
    EXPECT_EQ(result.logit, OfflineLogit(model, g))
        << named.name << " graph " << i << " pool=" << pool_enabled;
    EXPECT_EQ(result.edges_scored, g.num_edges());
    ASSERT_TRUE(shard.EndSession(id).ok());
  }
}

TEST(ServeParityTest, FinalScoreBitIdenticalAcrossConfigs) {
  for (const tensor::SimdMode mode : ParityModes()) {
    tensor::ScopedSimdMode pin(mode);
    for (const NamedConfig& named : ParityConfigs()) {
      ExpectFinalScoreParity(named, /*pool_enabled=*/true);
    }
  }
}

TEST(ServeParityTest, FinalScoreBitIdenticalPoolDisabled) {
  for (const tensor::SimdMode mode : ParityModes()) {
    tensor::ScopedSimdMode pin(mode);
    for (const NamedConfig& named : ParityConfigs()) {
      ExpectFinalScoreParity(named, /*pool_enabled=*/false);
    }
  }
}

// Scoring after every single edge must match the offline forward over the
// corresponding prefix graph. This is the hard case for incrementality:
// with normalize_time on, each new max timestamp invalidates time-coupled
// state and forces a refold, which must land on exactly the same floats.
void ExpectPrefixParity(const NamedConfig& named) {
  model::ModelRegistry registry(named.config, /*seed=*/5);
  core::TpGnnModel& model = registry.initial_model();
  SessionShard shard(registry, ShardOptions{}, /*metrics=*/nullptr);
  graph::GraphDataset dataset = ParityDataset();
  const graph::TemporalGraph& g = dataset[0].graph;
  const uint64_t id = 7;
  ASSERT_TRUE(shard
                  .BeginSession(id, g.num_nodes(), g.feature_dim(),
                                AllNodeFeatures(g), /*now=*/0.0)
                  .ok());

  graph::TemporalGraph prefix(g.num_nodes(), g.feature_dim());
  for (int64_t node = 0; node < g.num_nodes(); ++node) {
    prefix.SetNodeFeature(node, g.node_feature(node));
  }
  for (size_t k = 0; k < g.edges().size(); ++k) {
    const graph::TemporalEdge& e = g.edges()[k];
    ASSERT_TRUE(shard.AddEdge(id, e.src, e.dst, e.time, /*now=*/0.0).ok());
    prefix.AddEdge(e.src, e.dst, e.time);
    ScoreResult result;
    ASSERT_TRUE(shard.Score(id, &result).ok());
    EXPECT_EQ(result.logit, OfflineLogit(model, prefix))
        << named.name << " prefix " << (k + 1);
  }
}

TEST(ServeParityTest, EveryPrefixScoreBitIdentical) {
  for (const tensor::SimdMode mode : ParityModes()) {
    tensor::ScopedSimdMode pin(mode);
    for (const NamedConfig& named : ParityConfigs()) {
      ExpectPrefixParity(named);
    }
  }
}

// Out-of-order arrival: the shard re-sorts chronologically, exactly like
// the offline forward does over a graph holding the same arrival order.
TEST(ServeParityTest, OutOfOrderArrivalMatchesOfflineForward) {
  for (const NamedConfig& named : ParityConfigs()) {
    model::ModelRegistry registry(named.config, /*seed=*/5);
    core::TpGnnModel& model = registry.initial_model();
    SessionShard shard(registry, ShardOptions{}, /*metrics=*/nullptr);
    graph::GraphDataset dataset = ParityDataset();
    const graph::TemporalGraph& g = dataset[1].graph;
    const uint64_t id = 8;
    ASSERT_TRUE(shard
                    .BeginSession(id, g.num_nodes(), g.feature_dim(),
                                  AllNodeFeatures(g), /*now=*/0.0)
                    .ok());
    // Reverse arrival order; the offline graph gets the same arrival order
    // so both sides sort the identical edge list.
    graph::TemporalGraph reversed(g.num_nodes(), g.feature_dim());
    for (int64_t node = 0; node < g.num_nodes(); ++node) {
      reversed.SetNodeFeature(node, g.node_feature(node));
    }
    for (auto it = g.edges().rbegin(); it != g.edges().rend(); ++it) {
      ASSERT_TRUE(shard.AddEdge(id, it->src, it->dst, it->time, 0.0).ok());
      reversed.AddEdge(it->src, it->dst, it->time);
    }
    ScoreResult result;
    ASSERT_TRUE(shard.Score(id, &result).ok());
    EXPECT_EQ(result.logit, OfflineLogit(model, reversed)) << named.name;
    // And again: a repeated score without new edges must be stable.
    ScoreResult again;
    ASSERT_TRUE(shard.Score(id, &again).ok());
    EXPECT_EQ(again.logit, result.logit) << named.name;
  }
}

// Interleaved sessions must not contaminate each other's state: scores of
// two sessions fed alternately equal their isolated-session scores.
TEST(ServeParityTest, InterleavedSessionsStayIndependent) {
  core::TpGnnConfig config = TinyServeConfig();
  config.updater = core::Updater::kGru;
  model::ModelRegistry registry(config, /*seed=*/5);
  core::TpGnnModel& model = registry.initial_model();
  SessionShard shard(registry, ShardOptions{}, /*metrics=*/nullptr);
  graph::GraphDataset dataset = ParityDataset();
  const graph::TemporalGraph& a = dataset[2].graph;
  const graph::TemporalGraph& b = dataset[3].graph;
  ASSERT_TRUE(shard.BeginSession(1, a.num_nodes(), a.feature_dim(),
                                 AllNodeFeatures(a), 0.0)
                  .ok());
  ASSERT_TRUE(shard.BeginSession(2, b.num_nodes(), b.feature_dim(),
                                 AllNodeFeatures(b), 0.0)
                  .ok());
  const size_t steps = std::max(a.edges().size(), b.edges().size());
  for (size_t k = 0; k < steps; ++k) {
    if (k < a.edges().size()) {
      const graph::TemporalEdge& e = a.edges()[k];
      ASSERT_TRUE(shard.AddEdge(1, e.src, e.dst, e.time, 0.0).ok());
    }
    if (k < b.edges().size()) {
      const graph::TemporalEdge& e = b.edges()[k];
      ASSERT_TRUE(shard.AddEdge(2, e.src, e.dst, e.time, 0.0).ok());
    }
  }
  ScoreResult ra;
  ScoreResult rb;
  ASSERT_TRUE(shard.Score(1, &ra).ok());
  ASSERT_TRUE(shard.Score(2, &rb).ok());
  EXPECT_EQ(ra.logit, OfflineLogit(model, a));
  EXPECT_EQ(rb.logit, OfflineLogit(model, b));
}

}  // namespace
}  // namespace tpgnn::serve
