#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

using tensor::Tensor;

TEST(AdamTest, MinimizesQuadratic) {
  Tensor x = Tensor::FromVector({2}, {4.0f, -3.0f}, true);
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = tensor::Sum(tensor::Mul(x, x));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
  EXPECT_NEAR(x.data()[1], 0.0f, 1e-2f);
}

TEST(AdamTest, FitsLinearRegression) {
  Rng rng(1);
  Linear fc(2, 1, rng);
  // Ground truth: y = 2*x0 - x1 + 0.5.
  Tensor xs = Tensor::Uniform({32, 2}, -1, 1, rng);
  std::vector<float> ys(32);
  for (int i = 0; i < 32; ++i) {
    ys[static_cast<size_t>(i)] =
        2.0f * xs.at({i, 0}) - xs.at({i, 1}) + 0.5f;
  }
  Tensor target = Tensor::FromVector({32, 1}, ys);
  Adam opt(fc.Parameters(), 0.05f);
  float final_loss = 0.0f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    opt.ZeroGrad();
    Tensor pred = fc.Forward(xs);
    Tensor diff = tensor::Sub(pred, target);
    Tensor loss =
        tensor::Scale(tensor::Sum(tensor::Mul(diff, diff)), 1.0f / 32);
    loss.Backward();
    opt.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(AdamTest, FirstStepMagnitudeIsLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Adam opt({x}, 0.01f);
  opt.ZeroGrad();
  tensor::Scale(x, 5.0f).Backward();
  opt.Step();
  EXPECT_NEAR(x.item(), 1.0f - 0.01f, 1e-4f);
}

TEST(OptimizerTest, ZeroGradResetsAccumulation) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Adam opt({x}, 1.0f);
  tensor::Scale(x, 2.0f).Backward();
  tensor::Scale(x, 2.0f).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

TEST(OptimizerTest, MultipleParameterGroups) {
  Tensor a = Tensor::FromVector({1}, {2.0f}, true);
  Tensor b = Tensor::FromVector({1}, {-2.0f}, true);
  Adam opt({a, b}, 0.5f);
  opt.ZeroGrad();
  tensor::Sum(tensor::Add(tensor::Mul(a, a), tensor::Mul(b, b))).Backward();
  opt.Step();
  // Each group takes its own first Adam step, ~lr * sign(grad).
  EXPECT_NEAR(a.item(), 1.5f, 1e-4f);
  EXPECT_NEAR(b.item(), -1.5f, 1e-4f);
}

}  // namespace
}  // namespace tpgnn::nn
