// Determinism contracts of the tensor memory subsystem at training scale:
//  * Training metrics are bit-identical with the buffer pool on and off,
//    for every (batch_size, num_threads) combination — pool reuse and tape
//    recycling are value-invisible.
//  * The zero-copy inference forward (NoGradGuard) produces bit-identical
//    logits to the recorded training-mode forward, across updaters,
//    readouts, and edge aggregations.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "eval/trainer.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace tpgnn::eval {
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

core::TpGnnConfig TinyConfig() {
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

graph::GraphDataset TinyDataset(int64_t count) {
  return data::MakeDataset(data::HdfsSpec(), count, /*seed=*/21);
}

TrainResult TrainWith(int64_t batch_size, int64_t num_threads,
                      bool pool_enabled) {
  ScopedPoolEnabled pool(pool_enabled);
  core::TpGnnModel model(TinyConfig(), 7);
  TrainOptions options;
  options.epochs = 2;
  options.learning_rate = 5e-3f;
  options.seed = 11;
  options.batch_size = batch_size;
  options.num_threads = num_threads;
  return TrainClassifier(model, TinyDataset(24), options);
}

TEST(PoolParityTest, TrainingLossesBitIdenticalPoolOnVsOff) {
  for (int64_t batch_size : {int64_t{1}, int64_t{4}}) {
    for (int64_t num_threads : {int64_t{1}, int64_t{4}}) {
      TrainResult with_pool =
          TrainWith(batch_size, num_threads, /*pool_enabled=*/true);
      TrainResult without_pool =
          TrainWith(batch_size, num_threads, /*pool_enabled=*/false);
      ASSERT_EQ(with_pool.epoch_losses.size(),
                without_pool.epoch_losses.size());
      for (size_t e = 0; e < with_pool.epoch_losses.size(); ++e) {
        EXPECT_EQ(with_pool.epoch_losses[e], without_pool.epoch_losses[e])
            << "batch_size=" << batch_size << " num_threads=" << num_threads
            << " epoch=" << e;
      }
    }
  }
}

// Runs the recorded (grad-enabled) and the zero-copy (NoGradGuard) forward
// over the same graphs. The two are bitwise equal in scalar SIMD mode and in
// the active one (tensor/kernels.h).
void ExpectInferenceMatchesRecordedForward(const core::TpGnnConfig& config) {
  core::TpGnnModel model(config, 13);
  graph::GraphDataset dataset = TinyDataset(6);
  for (const graph::LabeledGraph& sample : dataset) {
    Rng rng(0);
    tensor::Tensor recorded =
        model.ForwardLogit(sample.graph, /*training=*/false, rng);
    {
      tensor::ScopedSimdMode scalar_mode(tensor::SimdMode::kScalar);
      tensor::NoGradGuard no_grad;
      const float fast =
          model.ForwardLogit(sample.graph, /*training=*/false, rng).item();
      EXPECT_EQ(recorded.item(), fast);
    }
    {
      tensor::NoGradGuard no_grad;
      const float active =
          model.ForwardLogit(sample.graph, /*training=*/false, rng).item();
      EXPECT_EQ(recorded.item(), active);
    }
  }
}

TEST(PoolParityTest, InferencePathMatchesRecordedForwardSumUpdater) {
  ExpectInferenceMatchesRecordedForward(TinyConfig());
}

TEST(PoolParityTest, InferencePathMatchesRecordedForwardGruUpdater) {
  core::TpGnnConfig config = TinyConfig();
  config.updater = core::Updater::kGru;
  ExpectInferenceMatchesRecordedForward(config);
}

TEST(PoolParityTest, InferencePathMatchesRecordedForwardLastStateConcat) {
  core::TpGnnConfig config = TinyConfig();
  config.extractor_readout = core::ExtractorReadout::kLastState;
  config.edge_agg = core::EdgeAgg::kConcatenation;
  ExpectInferenceMatchesRecordedForward(config);
}

TEST(PoolParityTest, InferencePathMatchesRecordedForwardWeightedL1) {
  core::TpGnnConfig config = TinyConfig();
  config.edge_agg = core::EdgeAgg::kWeightedL1;
  ExpectInferenceMatchesRecordedForward(config);
}

}  // namespace
}  // namespace tpgnn::eval
