// Property-style sweeps over the tensor library: algebraic identities that
// must hold for every shape/seed combination, checked with parameterized
// gtest.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "testing/all_close.h"
#include "util/rng.h"

namespace tpgnn::tensor {
namespace {

using ShapeSeed = std::tuple<int64_t, int64_t, uint64_t>;  // rows, cols, seed

class ElementwiseProperties : public ::testing::TestWithParam<ShapeSeed> {
 protected:
  Tensor Rand(Rng& rng, float lo = -2.0f, float hi = 2.0f) {
    auto [rows, cols, seed] = GetParam();
    return Tensor::Uniform({rows, cols}, lo, hi, rng);
  }
};

TEST_P(ElementwiseProperties, AddIsCommutative) {
  Rng rng(std::get<2>(GetParam()));
  Tensor a = Rand(rng);
  Tensor b = Rand(rng);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a), 0.0f, 0.0f));
}

TEST_P(ElementwiseProperties, AddIsAssociative) {
  Rng rng(std::get<2>(GetParam()) + 1);
  Tensor a = Rand(rng);
  Tensor b = Rand(rng);
  Tensor c = Rand(rng);
  EXPECT_TRUE(
      AllClose(Add(Add(a, b), c), Add(a, Add(b, c)), 1e-6f, 1e-6f));
}

TEST_P(ElementwiseProperties, MulDistributesOverAdd) {
  Rng rng(std::get<2>(GetParam()) + 2);
  Tensor a = Rand(rng);
  Tensor b = Rand(rng);
  Tensor c = Rand(rng);
  EXPECT_TRUE(AllClose(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c)), 1e-5f,
                       1e-5f));
}

TEST_P(ElementwiseProperties, SubOfSelfIsZero) {
  Rng rng(std::get<2>(GetParam()) + 3);
  Tensor a = Rand(rng);
  Tensor z = Sub(a, a);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
}

TEST_P(ElementwiseProperties, NegIsScaleMinusOne) {
  Rng rng(std::get<2>(GetParam()) + 4);
  Tensor a = Rand(rng);
  EXPECT_TRUE(AllClose(Neg(a), Scale(a, -1.0f), 0.0f, 0.0f));
}

TEST_P(ElementwiseProperties, SinSquaredPlusCosSquared) {
  Rng rng(std::get<2>(GetParam()) + 6);
  Tensor a = Rand(rng, -6.0f, 6.0f);
  Tensor identity = Add(Mul(Sin(a), Sin(a)), Mul(Cos(a), Cos(a)));
  auto [rows, cols, seed] = GetParam();
  EXPECT_TRUE(AllClose(identity, Tensor::Ones({rows, cols}), 1e-5f, 1e-5f));
}

TEST_P(ElementwiseProperties, SigmoidSymmetry) {
  // sigmoid(-x) = 1 - sigmoid(x).
  Rng rng(std::get<2>(GetParam()) + 7);
  Tensor a = Rand(rng, -4.0f, 4.0f);
  Tensor lhs = Sigmoid(Neg(a));
  Tensor rhs = AddScalar(Neg(Sigmoid(a)), 1.0f);
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-6f, 1e-6f));
}

TEST_P(ElementwiseProperties, TransposeIsInvolution) {
  Rng rng(std::get<2>(GetParam()) + 8);
  Tensor a = Rand(rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a, 0.0f, 0.0f));
}

TEST_P(ElementwiseProperties, SumAxesAgreeWithTotal) {
  Rng rng(std::get<2>(GetParam()) + 9);
  Tensor a = Rand(rng);
  EXPECT_NEAR(Sum(SumAxis(a, 0)).item(), Sum(a).item(), 1e-3f);
  EXPECT_NEAR(Sum(SumAxis(a, 1)).item(), Sum(a).item(), 1e-3f);
}

TEST_P(ElementwiseProperties, SoftmaxRowsAreDistributions) {
  Rng rng(std::get<2>(GetParam()) + 10);
  Tensor a = Rand(rng, -5.0f, 5.0f);
  Tensor y = Softmax(a);
  auto [rows, cols, seed] = GetParam();
  for (int64_t r = 0; r < rows; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      const float v = y.at({r, c});
      EXPECT_GE(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, ElementwiseProperties,
    ::testing::Values(ShapeSeed{1, 1, 1}, ShapeSeed{1, 7, 2},
                      ShapeSeed{5, 1, 3}, ShapeSeed{3, 4, 4},
                      ShapeSeed{8, 8, 5}, ShapeSeed{2, 16, 6}),
    [](const ::testing::TestParamInfo<ShapeSeed>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "c" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

class MatMulProperties : public ::testing::TestWithParam<uint64_t> {};

Tensor Identity(int64_t n) {
  Tensor eye = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) eye.MutableAt({i, i}) = 1.0f;
  return eye;
}

TEST_P(MatMulProperties, AssociativityOnRandomChains) {
  Rng rng(GetParam());
  const int64_t n = rng.UniformInt(1, 6);
  const int64_t k = rng.UniformInt(1, 6);
  const int64_t m = rng.UniformInt(1, 6);
  const int64_t p = rng.UniformInt(1, 6);
  Tensor a = Tensor::Uniform({n, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, m}, -1, 1, rng);
  Tensor c = Tensor::Uniform({m, p}, -1, 1, rng);
  EXPECT_TRUE(AllClose(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)),
                       1e-4f, 1e-4f));
}

TEST_P(MatMulProperties, TransposeOfProduct) {
  Rng rng(GetParam() + 100);
  const int64_t n = rng.UniformInt(1, 6);
  const int64_t k = rng.UniformInt(1, 6);
  const int64_t m = rng.UniformInt(1, 6);
  Tensor a = Tensor::Uniform({n, k}, -1, 1, rng);
  Tensor b = Tensor::Uniform({k, m}, -1, 1, rng);
  EXPECT_TRUE(AllClose(Transpose(MatMul(a, b)),
                       MatMul(Transpose(b), Transpose(a)), 1e-5f, 1e-5f));
}

TEST_P(MatMulProperties, IdentityIsNeutral) {
  Rng rng(GetParam() + 200);
  const int64_t n = rng.UniformInt(1, 8);
  const int64_t m = rng.UniformInt(1, 8);
  Tensor a = Tensor::Uniform({n, m}, -1, 1, rng);
  EXPECT_TRUE(AllClose(MatMul(a, Identity(m)), a, 1e-6f, 1e-6f));
  EXPECT_TRUE(AllClose(MatMul(Identity(n), a), a, 1e-6f, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulProperties,
                         ::testing::Range<uint64_t>(1, 9));

TEST(TensorDeathTest, MatMulShapeMismatch) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 2});
  EXPECT_DEATH(MatMul(a, b), "MatMul");
}

TEST(TensorDeathTest, IncompatibleBroadcast) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(Add(a, b), "broadcast");
}

TEST(TensorDeathTest, BackwardOnNonScalar) {
  Tensor a = Tensor::Ones({2}, true);
  Tensor b = Add(a, a);
  EXPECT_DEATH(b.Backward(), "scalar");
}

TEST(TensorDeathTest, BackwardTwiceOnSameTape) {
  Tensor a = Tensor::Ones({2}, true);
  Tensor loss = Sum(Add(a, a));
  loss.Backward();
  EXPECT_DEATH(loss.Backward(), "twice");
}

TEST(TensorDeathTest, ItemOnMultiElement) {
  Tensor a = Tensor::Zeros({2});
  EXPECT_DEATH(a.item(), "single-element");
}

TEST(TensorDeathTest, ReshapeNumelMismatch) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(Reshape(a, {4, 2}), "Reshape");
}

TEST(TensorDeathTest, OutOfRangeIndex) {
  Tensor a = Tensor::Zeros({2, 2});
  EXPECT_DEATH(a.at({2, 0}), "Check failed");
}

}  // namespace
}  // namespace tpgnn::tensor
