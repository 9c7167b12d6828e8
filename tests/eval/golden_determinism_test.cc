// Golden regression for end-to-end training determinism: three epochs on
// the smallest HDFS log-session configuration, fixed seeds throughout, with
// per-epoch losses and test AUC pinned to checked-in goldens.
//
// Purpose: silent numeric drift — a reordered reduction, an accidental RNG
// draw, an optimizer change — shows up here as a hard failure even when
// every behavioural test still passes. If a change is *supposed* to alter
// the numbers, regenerate with
//   TPGNN_PRINT_GOLDENS=1 ./eval_golden_determinism_test
// and update the constants below in the same commit, explaining why.
//
// Tolerance: the run is bit-deterministic on a fixed binary (single RNG
// stream, serial reductions at batch_size 1), but goldens must survive
// recompilation at different -O levels, so comparisons allow a small
// relative slack rather than exact equality.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/datasets.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace tpgnn::eval {
namespace {

// Goldens recorded on the reference build (gcc, Release, 2026-08).
constexpr double kGoldenEpochLosses[3] = {0.71099739968776698,
                                          0.70415572524070735,
                                          0.70345779061317448};
constexpr double kGoldenAuc = 0.59595959595959591;
constexpr double kGoldenAccuracy = 0.5;

// Relative slack for cross-optimization-level stability of float math.
constexpr double kRelTol = 1e-5;

core::TpGnnConfig SmallestConfig() {
  core::TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

struct GoldenRun {
  std::vector<double> losses;
  double auc = 0.0;
  double accuracy = 0.0;
};

GoldenRun RunGoldenConfig() {
  // Goldens are recorded against the scalar kernels. Every table computes
  // the same bits (tensor/kernels.h); TrainingIsBitIdenticalAcrossSimdModes
  // checks that on its own.
  tensor::ScopedSimdMode scalar_mode(tensor::SimdMode::kScalar);
  auto dataset = data::MakeDataset(data::HdfsSpec(), 40, /*seed=*/21);
  auto split = data::SplitDataset(dataset, 0.5);

  core::TpGnnModel model(SmallestConfig(), /*seed=*/1);
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 5e-3f;
  options.seed = 1;
  GoldenRun run;
  run.losses = TrainClassifier(model, split.train, options).epoch_losses;

  std::vector<double> scores;
  std::vector<int> labels;
  Rng rng(0);  // Inference is deterministic; the stream is never drawn.
  for (const auto& example : split.test) {
    scores.push_back(
        model.ForwardLogit(example.graph, /*training=*/false, rng).data()[0]);
    labels.push_back(example.label);
  }
  run.auc = ComputeAuc(scores, labels);
  run.accuracy = EvaluateClassifier(model, split.test).accuracy;
  return run;
}

void ExpectNearRel(double actual, double golden, const char* what) {
  const double tol = kRelTol * (golden < 0 ? -golden : golden) + 1e-12;
  EXPECT_NEAR(actual, golden, tol) << what;
}

TEST(GoldenDeterminismTest, ThreeEpochHdfsRunMatchesGoldens) {
  GoldenRun run = RunGoldenConfig();
  ASSERT_EQ(run.losses.size(), 3u);
  if (std::getenv("TPGNN_PRINT_GOLDENS") != nullptr) {
    std::printf("kGoldenEpochLosses = {%.17g, %.17g, %.17g}\n",
                run.losses[0], run.losses[1], run.losses[2]);
    std::printf("kGoldenAuc = %.17g\nkGoldenAccuracy = %.17g\n", run.auc,
                run.accuracy);
    return;
  }
  for (int e = 0; e < 3; ++e) {
    ExpectNearRel(run.losses[e], kGoldenEpochLosses[e], "epoch loss");
  }
  ExpectNearRel(run.auc, kGoldenAuc, "test AUC");
  ExpectNearRel(run.accuracy, kGoldenAccuracy, "test accuracy");
}

TEST(GoldenDeterminismTest, BackToBackRunsAreBitIdentical) {
  GoldenRun a = RunGoldenConfig();
  GoldenRun b = RunGoldenConfig();
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t e = 0; e < a.losses.size(); ++e) {
    EXPECT_EQ(a.losses[e], b.losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(a.auc, b.auc);
  EXPECT_EQ(a.accuracy, b.accuracy);
}

// Training is ISA-independent: every kernel entry is bitwise across tables
// and the rest is libm (tensor/kernels.h), so the golden run under the AVX2
// table ends with the same losses and the same parameters, bit for bit, as
// under the scalar table. A vector kernel that drifted from the scalar
// definition would break this.
TEST(GoldenDeterminismTest, TrainingIsBitIdenticalAcrossSimdModes) {
  struct Trained {
    std::vector<double> losses;
    std::vector<std::vector<float>> params;
  };
  auto train = [](tensor::SimdMode mode) {
    tensor::ScopedSimdMode pin(mode);
    auto dataset = data::MakeDataset(data::HdfsSpec(), 40, /*seed=*/21);
    auto split = data::SplitDataset(dataset, 0.5);
    core::TpGnnModel model(SmallestConfig(), /*seed=*/1);
    TrainOptions options;
    options.epochs = 3;
    options.learning_rate = 5e-3f;
    options.seed = 1;
    Trained out;
    out.losses = TrainClassifier(model, split.train, options).epoch_losses;
    for (const tensor::Tensor& p : model.Parameters()) {
      out.params.push_back(p.data());
    }
    return out;
  };
  const Trained scalar = train(tensor::SimdMode::kScalar);
  if (!tensor::SimdModeSupported(tensor::SimdMode::kAvx2)) {
    GTEST_SKIP() << "no AVX2 on this build or CPU";
  }
  const Trained avx2 = train(tensor::SimdMode::kAvx2);
  ASSERT_EQ(scalar.losses.size(), avx2.losses.size());
  for (size_t e = 0; e < scalar.losses.size(); ++e) {
    EXPECT_EQ(std::memcmp(&scalar.losses[e], &avx2.losses[e], sizeof(double)),
              0)
        << "epoch " << e << ": " << scalar.losses[e] << " vs "
        << avx2.losses[e];
  }
  ASSERT_EQ(scalar.params.size(), avx2.params.size());
  for (size_t i = 0; i < scalar.params.size(); ++i) {
    ASSERT_EQ(scalar.params[i].size(), avx2.params[i].size());
    EXPECT_EQ(std::memcmp(scalar.params[i].data(), avx2.params[i].data(),
                          scalar.params[i].size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

}  // namespace
}  // namespace tpgnn::eval
