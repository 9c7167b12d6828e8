#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "util/rng.h"

namespace tpgnn::tensor {
namespace {

TEST(ShapeTest, Numel) {
  EXPECT_EQ(Numel({}), 1);
  EXPECT_EQ(Numel({0}), 0);
  EXPECT_EQ(Numel({3}), 3);
  EXPECT_EQ(Numel({2, 3}), 6);
  EXPECT_EQ(Numel({2, 3, 4}), 24);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

TEST(TensorTest, ZerosAndOnes) {
  Tensor z = Tensor::Zeros({2, 2});
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  Tensor o = Tensor::Ones({3});
  for (float v : o.data()) EXPECT_EQ(v, 1.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({2, 3}, 2.5f);
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, FromVectorAndAccess) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 2}), 3.0f);
  EXPECT_EQ(t.at({1, 0}), 4.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
}

TEST(TensorTest, MutableAtWrites) {
  Tensor t = Tensor::Zeros({2, 2});
  t.MutableAt({1, 1}) = 5.0f;
  EXPECT_EQ(t.at({1, 1}), 5.0f);
}

TEST(TensorTest, ScalarItem) {
  Tensor s = Tensor::Scalar(3.5f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.item(), 3.5f);
}

TEST(TensorTest, UniformWithinBounds) {
  Rng rng(1);
  Tensor t = Tensor::Uniform({100}, -2.0f, 3.0f, rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(TensorTest, RandnStddev) {
  Rng rng(2);
  Tensor t = Tensor::Randn({10000}, 2.0f, rng);
  double sum_sq = 0.0;
  for (float v : t.data()) sum_sq += static_cast<double>(v) * v;
  EXPECT_NEAR(sum_sq / t.numel(), 4.0, 0.3);
}

TEST(TensorTest, CopyAliasesStorage) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;  // Handle copy: shares impl.
  b.MutableAt({0}) = 7.0f;
  EXPECT_EQ(a.at({0}), 7.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a.Clone();
  b.MutableAt({0}) = 7.0f;
  EXPECT_EQ(a.at({0}), 0.0f);
}

TEST(TensorTest, DetachDropsGradHistory) {
  Tensor a = Tensor::Ones({2}, /*requires_grad=*/true);
  Tensor b = Add(a, a);
  EXPECT_TRUE(b.requires_grad());
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at({0}), 2.0f);
}

TEST(TensorTest, RequiresGradFlagPropagation) {
  Tensor a = Tensor::Ones({2}, true);
  Tensor b = Tensor::Ones({2}, false);
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
}

TEST(TensorTest, NoGradGuardDisablesTape) {
  Tensor a = Tensor::Ones({2}, true);
  {
    NoGradGuard guard;
    Tensor b = Add(a, a);
    EXPECT_FALSE(b.requires_grad());
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
}

TEST(TensorTest, NoGradGuardNests) {
  NoGradGuard g1;
  {
    NoGradGuard g2;
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_FALSE(GradEnabled());
}

TEST(TensorTest, ZeroGradClears) {
  Tensor a = Tensor::Ones({2}, true);
  Tensor loss = Sum(Mul(a, a));
  loss.Backward();
  EXPECT_EQ(a.grad()[0], 2.0f);
  a.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0f);
}

TEST(TensorTest, ToStringContainsShape) {
  Tensor t = Tensor::FromVector({2}, {1.0f, 2.0f});
  EXPECT_NE(t.ToString().find("[2]"), std::string::npos);
}

TEST(TensorTest, DefaultTensorIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.defined());
}

}  // namespace
}  // namespace tpgnn::tensor
