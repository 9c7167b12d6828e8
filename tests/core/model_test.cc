#include "core/model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "eval/trainer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace tpgnn::core {
namespace {

using graph::TemporalGraph;
using tensor::Tensor;

TpGnnConfig SmallConfig(Updater updater = Updater::kSum,
                        Variant variant = Variant::kFull) {
  TpGnnConfig config;
  config.updater = updater;
  config.variant = variant;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

TemporalGraph SmallGraph() {
  TemporalGraph g(4, 3);
  g.SetNodeFeature(0, {0.1f, 0.2f, 0.0f});
  g.SetNodeFeature(1, {0.3f, 0.1f, 0.0f});
  g.SetNodeFeature(2, {0.2f, 0.4f, 0.0f});
  g.SetNodeFeature(3, {0.5f, 0.3f, 0.0f});
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  g.AddEdge(3, 0, 4.0);
  return g;
}

TEST(TpGnnModelTest, LogitShape) {
  TpGnnModel model(SmallConfig(), /*seed=*/1);
  Rng rng(1);
  Tensor logit = model.ForwardLogit(SmallGraph(), /*training=*/false, rng);
  EXPECT_EQ(logit.shape(), (tensor::Shape{1}));
}

TEST(TpGnnModelTest, InferenceIsDeterministic) {
  TpGnnModel model(SmallConfig(), 2);
  Rng rng1(1);
  Rng rng2(999);
  Tensor a = model.ForwardLogit(SmallGraph(), false, rng1);
  Tensor b = model.ForwardLogit(SmallGraph(), false, rng2);
  EXPECT_EQ(a.item(), b.item());
}

TEST(TpGnnModelTest, SameSeedSameModel) {
  TpGnnModel m1(SmallConfig(), 7);
  TpGnnModel m2(SmallConfig(), 7);
  Rng rng(1);
  EXPECT_EQ(m1.ForwardLogit(SmallGraph(), false, rng).item(),
            m2.ForwardLogit(SmallGraph(), false, rng).item());
}

TEST(TpGnnModelTest, DifferentSeedDifferentModel) {
  TpGnnModel m1(SmallConfig(), 7);
  TpGnnModel m2(SmallConfig(), 8);
  Rng rng(1);
  EXPECT_NE(m1.ForwardLogit(SmallGraph(), false, rng).item(),
            m2.ForwardLogit(SmallGraph(), false, rng).item());
}

TEST(TpGnnModelTest, EmbedReturnsConfiguredDim) {
  TpGnnModel model(SmallConfig(), 3);
  Tensor g = model.Embed(SmallGraph());
  EXPECT_EQ(g.shape(), (tensor::Shape{8}));  // hidden_dim.
}

TEST(TpGnnModelTest, GradientReachesEveryParameter) {
  for (Updater updater : {Updater::kSum, Updater::kGru}) {
    TpGnnModel model(SmallConfig(updater), 4);
    Rng rng(1);
    Tensor logit = model.ForwardLogit(SmallGraph(), true, rng);
    Tensor target = Tensor::Scalar(1.0f);
    tensor::BinaryCrossEntropyWithLogits(logit, target).Backward();
    for (const auto& [name, p] : model.NamedParameters()) {
      float norm = 0.0f;
      for (float g : p.grad()) norm += g * g;
      EXPECT_GT(norm, 0.0f) << "no grad for " << name << " updater "
                            << static_cast<int>(updater);
    }
  }
}

TEST(TpGnnModelTest, AllVariantsProduceFiniteLogits) {
  for (Variant variant :
       {Variant::kFull, Variant::kRand, Variant::kWithoutTem, Variant::kTemp,
        Variant::kTime2Vec}) {
    for (Updater updater : {Updater::kSum, Updater::kGru}) {
      TpGnnModel model(SmallConfig(updater, variant), 5);
      Rng rng(2);
      Tensor logit = model.ForwardLogit(SmallGraph(), true, rng);
      EXPECT_TRUE(std::isfinite(logit.item()))
          << model.name() << " produced non-finite logit";
    }
  }
}

// The offline forward (the reference serving must equal) turns a NaN
// feature into a NaN logit in every SIMD mode: the kernel maps propagate
// NaN (tensor/kernels.h). An AVX2 tanh whose clamp dropped the NaN once
// scored this graph -0.344.
TEST(TpGnnModelTest, NanFeatureGivesANanLogitInEveryMode) {
  TpGnnModel model(TpGnnConfig{}, /*seed=*/7);
  TemporalGraph g = SmallGraph();
  g.SetNodeFeature(2, {0.2f, std::nanf(""), 0.0f});
  for (tensor::SimdMode mode :
       {tensor::SimdMode::kScalar, tensor::SimdMode::kAvx2,
        tensor::SimdMode::kNeon}) {
    if (!tensor::SimdModeSupported(mode)) continue;
    tensor::ScopedSimdMode pin(mode);
    tensor::NoGradGuard no_grad;
    Rng rng(1);
    EXPECT_TRUE(std::isnan(model.ForwardLogit(g, false, rng).item()))
        << tensor::SimdModeName(mode);
  }
}

TEST(TpGnnModelTest, ModelNames) {
  EXPECT_EQ(TpGnnModel(SmallConfig(Updater::kSum), 1).name(), "TP-GNN-SUM");
  EXPECT_EQ(TpGnnModel(SmallConfig(Updater::kGru), 1).name(), "TP-GNN-GRU");
  EXPECT_EQ(TpGnnModel(SmallConfig(Updater::kSum, Variant::kRand), 1).name(),
            "TP-GNN-SUM (rand)");
  EXPECT_EQ(
      TpGnnModel(SmallConfig(Updater::kGru, Variant::kTime2Vec), 1).name(),
      "TP-GNN-GRU (time2Vec)");
}

TEST(TpGnnModelTest, DistinguishesFig1StylePair) {
  // Two graphs with identical topology but different timestamp order must
  // receive different logits (the paper's motivating example).
  TpGnnModel model(SmallConfig(), 6);
  TemporalGraph g1 = SmallGraph();
  TemporalGraph g2 = SmallGraph();
  // Reverse the timestamps: establishment order flips.
  for (size_t i = 0; i < g2.mutable_edges().size(); ++i) {
    g2.mutable_edges()[i].time = 5.0 - g2.mutable_edges()[i].time;
  }
  Rng rng(1);
  EXPECT_NE(model.ForwardLogit(g1, false, rng).item(),
            model.ForwardLogit(g2, false, rng).item());
}

TEST(TpGnnModelTest, TrainsToSeparateEasyClasses) {
  // End-to-end smoke test: a tiny HDFS-flavoured dataset is learnable well
  // above chance within a few epochs.
  data::DatasetSpec spec = data::HdfsSpec();
  auto dataset = data::MakeDataset(spec, 160, /*seed=*/11);
  auto split = data::SplitDataset(dataset, 0.5);

  TpGnnConfig config = SmallConfig();
  config.embed_dim = 16;
  config.hidden_dim = 16;
  TpGnnModel model(config, 12);
  eval::TrainOptions options;
  options.epochs = 12;
  options.learning_rate = 3e-3f;
  options.seed = 12;
  eval::TrainResult result =
      eval::TrainClassifier(model, split.train, options);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  eval::Metrics metrics = eval::EvaluateClassifier(model, split.test);
  EXPECT_GT(metrics.accuracy, 0.75) << "F1=" << metrics.f1;
}

}  // namespace
}  // namespace tpgnn::core
