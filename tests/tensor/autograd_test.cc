#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace tpgnn::tensor {
namespace {

using testing::GradCheck;

Tensor RandParam(const Shape& shape, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  return Tensor::Uniform(shape, lo, hi, rng, /*requires_grad=*/true);
}

TEST(AutogradTest, AddGrad) {
  Rng rng(1);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Add(p[0], p[1])); },
      {RandParam({2, 3}, rng), RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, AddBroadcastGrad) {
  Rng rng(2);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Mul(Add(p[0], p[1]), Add(p[0], p[1])));
      },
      {RandParam({2, 3}, rng), RandParam({3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, SubGrad) {
  Rng rng(3);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Mul(Sub(p[0], p[1]), Sub(p[0], p[1])));
      },
      {RandParam({4}, rng), RandParam({4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, MulGrad) {
  Rng rng(4);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Mul(p[0], p[1])); },
      {RandParam({3, 2}, rng), RandParam({3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, DivGrad) {
  Rng rng(5);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Div(p[0], p[1])); },
      {RandParam({4}, rng), RandParam({4}, rng, 1.0f, 2.0f)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, MulBroadcastColumnGrad) {
  Rng rng(6);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Mul(p[0], p[1])); },
      {RandParam({3, 4}, rng), RandParam({3, 1}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, UnaryChainGrads) {
  Rng rng(7);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Tanh(Scale(Sigmoid(p[0]), 2.0f)));
      },
      {RandParam({5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, ExpLogGrad) {
  Rng rng(8);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Log(Exp(p[0]))); },
      {RandParam({4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, SqrtGrad) {
  Rng rng(9);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) { return Sum(Sqrt(p[0])); },
      {RandParam({4}, rng, 0.5f, 2.0f)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, SinCosGrad) {
  Rng rng(10);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Add(Sin(p[0]), Cos(p[0])));
      },
      {RandParam({6}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, LeakyReluGrad) {
  Rng rng(12);
  // Keep values away from the kink at 0 for finite differences.
  Tensor p = Tensor::FromVector({4}, {-2.0f, -1.0f, 1.0f, 2.0f}, true);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(LeakyRelu(p[0], 0.2f));
      },
      {p});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, MatMulGrad) {
  Rng rng(13);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Mul(MatMul(p[0], p[1]), MatMul(p[0], p[1])));
      },
      {RandParam({2, 3}, rng), RandParam({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, TransposeGrad) {
  Rng rng(14);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return Sum(Mul(Transpose(p[0]), Transpose(p[0])));
      },
      {RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, ReshapeGrad) {
  Rng rng(15);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor r = Reshape(p[0], {3, 2});
        return Sum(Mul(r, r));
      },
      {RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, ConcatGradAxis0) {
  Rng rng(16);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor c = Concat({p[0], p[1]}, 0);
        return Sum(Mul(c, c));
      },
      {RandParam({1, 3}, rng), RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, ConcatGradAxis1) {
  Rng rng(17);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor c = Concat({p[0], p[1]}, 1);
        return Sum(Mul(c, c));
      },
      {RandParam({2, 2}, rng), RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, StackGrad) {
  Rng rng(18);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor m = Stack({p[0], p[1]});
        return Sum(Mul(m, m));
      },
      {RandParam({3}, rng), RandParam({3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, IndexSelectGradWithRepeats) {
  Rng rng(19);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor g = IndexSelect(p[0], {0, 2, 0});
        return Sum(Mul(g, g));
      },
      {RandParam({3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, RowGrad) {
  Rng rng(20);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor row = Row(p[0], 1);
        return Sum(Mul(row, row));
      },
      {RandParam({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, SumAxisGrads) {
  Rng rng(21);
  auto r0 = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor s = SumAxis(p[0], 0);
        return Sum(Mul(s, s));
      },
      {RandParam({3, 4}, rng)});
  EXPECT_TRUE(r0.ok) << r0.message;
  auto r1 = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor s = SumAxis(p[0], 1);
        return Sum(Mul(s, s));
      },
      {RandParam({3, 4}, rng)});
  EXPECT_TRUE(r1.ok) << r1.message;
}

TEST(AutogradTest, MeanAxisGrad) {
  Rng rng(22);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor m = MeanAxis(p[0], 0);
        return Sum(Mul(m, m));
      },
      {RandParam({4, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, SoftmaxGrad) {
  Rng rng(23);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        Tensor y = Softmax(p[0]);
        // Weighted sum to produce asymmetric gradients.
        Tensor w = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
        return Sum(Mul(y, w));
      },
      {RandParam({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, BceWithLogitsGrad) {
  Rng rng(24);
  Tensor targets = Tensor::FromVector({4}, {1.0f, 0.0f, 1.0f, 0.0f});
  auto r = GradCheck(
      [targets](const std::vector<Tensor>& p) {
        return BinaryCrossEntropyWithLogits(p[0], targets);
      },
      {RandParam({4}, rng, -2.0f, 2.0f)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AutogradTest, ReusedTensorAccumulatesGrad) {
  // loss = sum(a*a + a) -> d/da = 2a + 1.
  Tensor a = Tensor::FromVector({2}, {3.0f, -1.0f}, true);
  Tensor loss = Sum(Add(Mul(a, a), a));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 7.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], -1.0f);
}

TEST(AutogradTest, DiamondGraphGrad) {
  // b = 2a; c = 3a; loss = sum(b*c) = 6*a^2 -> d/da = 12a.
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f}, true);
  Tensor b = Scale(a, 2.0f);
  Tensor c = Scale(a, 3.0f);
  Tensor loss = Sum(Mul(b, c));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 12.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 24.0f);
}

TEST(AutogradTest, DeepChainGrad) {
  // 60 sequential adds of the same leaf: d loss/da = 61 per element... no:
  // x_{k+1} = x_k + a, x_0 = a -> x_60 = 61a; loss = sum -> grad 61.
  Tensor a = Tensor::FromVector({2}, {0.5f, -0.5f}, true);
  Tensor x = a;
  for (int i = 0; i < 60; ++i) {
    x = Add(x, a);
  }
  Tensor loss = Sum(x);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 61.0f);
}

TEST(AutogradTest, BackwardTwiceAccumulates) {
  Tensor a = Tensor::FromVector({1}, {2.0f}, true);
  Tensor loss = Mul(a, a);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  Tensor loss2 = Mul(a, a);
  loss2.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 8.0f);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f}, true);
  Tensor b = Mul(a, a).Detach();
  Tensor c = Mul(a, b);
  Sum(c).Backward();
  // b is constant: d/da = b = a^2.
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
}

TEST(AutogradTest, MixedRequiresGradOnlyFlowsToLeaf) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f}, true);
  Tensor b = Tensor::FromVector({2}, {3.0f, 4.0f}, false);
  Tensor loss = Sum(Mul(a, b));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 3.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);
}

TEST(AutogradTest, GruLikeCompositeGradCheck) {
  // A miniature gated-recurrence step exercising the op set used by the
  // model: z = sigmoid(Wx+Uh), htilde = tanh(Wx), h' = z*h + (1-z)*htilde.
  Rng rng(25);
  auto r = GradCheck(
      [](const std::vector<Tensor>& p) {
        const Tensor& w = p[0];
        const Tensor& u = p[1];
        const Tensor& x = p[2];
        const Tensor& h = p[3];
        Tensor z = Sigmoid(Add(MatMul(x, w), MatMul(h, u)));
        Tensor htilde = Tanh(MatMul(x, w));
        Tensor ones = Tensor::Ones({1, 3});
        Tensor hprime = Add(Mul(z, h), Mul(Sub(ones, z), htilde));
        return Sum(Mul(hprime, hprime));
      },
      {RandParam({3, 3}, rng), RandParam({3, 3}, rng), RandParam({1, 3}, rng),
       RandParam({1, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace tpgnn::tensor
