#include "tensor/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/tensor.h"

namespace tpgnn::tensor {
namespace {

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.data(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(OpsTest, AddBroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsTest, AddBroadcastScalar) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(100.0f);
  Tensor c = Add(a, s);
  EXPECT_EQ(c.data(), (std::vector<float>{101, 102, 103, 104}));
}

TEST(OpsTest, AddBroadcastColumnVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {10, 100});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.data(), (std::vector<float>{11, 12, 13, 104, 105, 106}));
}

TEST(OpsTest, BroadcastShapeRules) {
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1}, {1, 3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShape({1}, {4}), (Shape{4}));
  EXPECT_EQ(BroadcastShape({5}, {5}), (Shape{5}));
}

TEST(OpsTest, SubMulDiv) {
  Tensor a = Tensor::FromVector({3}, {4, 9, 16});
  Tensor b = Tensor::FromVector({3}, {2, 3, 4});
  EXPECT_EQ(Sub(a, b).data(), (std::vector<float>{2, 6, 12}));
  EXPECT_EQ(Mul(a, b).data(), (std::vector<float>{8, 27, 64}));
  EXPECT_EQ(Div(a, b).data(), (std::vector<float>{2, 3, 4}));
}

TEST(OpsTest, ScaleAndAddScalar) {
  Tensor a = Tensor::FromVector({2}, {1, -2});
  EXPECT_EQ(Scale(a, 3.0f).data(), (std::vector<float>{3, -6}));
  EXPECT_EQ(AddScalar(a, 1.0f).data(), (std::vector<float>{2, -1}));
}

TEST(OpsTest, UnaryValues) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(Neg(a).at({1}), -1.0f);
  EXPECT_FLOAT_EQ(Exp(a).at({1}), std::exp(1.0f));
  EXPECT_FLOAT_EQ(Tanh(a).at({1}), std::tanh(1.0f));
  EXPECT_FLOAT_EQ(Sigmoid(a).at({0}), 0.5f);
  EXPECT_FLOAT_EQ(Sin(a).at({1}), std::sin(1.0f));
  EXPECT_FLOAT_EQ(Cos(a).at({0}), 1.0f);
}

TEST(OpsTest, LogAndSqrt) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 4.0f});
  EXPECT_FLOAT_EQ(Log(a).at({0}), 0.0f);
  EXPECT_FLOAT_EQ(Sqrt(a).at({1}), 2.0f);
}

TEST(OpsTest, ReluClampsNegatives) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5f, 0, 3});
  EXPECT_EQ(Relu(a).data(), (std::vector<float>{0, 0, 0, 3}));
}

TEST(OpsTest, LeakyReluKeepsSlope) {
  Tensor a = Tensor::FromVector({2}, {-10, 10});
  Tensor y = LeakyRelu(a, 0.1f);
  EXPECT_FLOAT_EQ(y.at({0}), -1.0f);
  EXPECT_FLOAT_EQ(y.at({1}), 10.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.data(), a.data());
}

TEST(OpsTest, TransposeSwapsAxes) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0f);
  EXPECT_EQ(t.at({2, 0}), 3.0f);
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
}

TEST(OpsTest, ConcatAxis1) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(OpsTest, ConcatVectors) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({3}, {3, 4, 5});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{5}));
  EXPECT_EQ(c.data(), (std::vector<float>{1, 2, 3, 4, 5}));
}

TEST(OpsTest, StackBuildsMatrix) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  Tensor m = Stack({a, b});
  EXPECT_EQ(m.shape(), (Shape{2, 3}));
  EXPECT_EQ(m.at({1, 2}), 6.0f);
}

TEST(OpsTest, IndexSelectGathersRows) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = IndexSelect(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_EQ(g.data(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
}

TEST(OpsTest, IndexSelect1D) {
  Tensor a = Tensor::FromVector({4}, {10, 20, 30, 40});
  Tensor g = IndexSelect(a, {3, 1});
  EXPECT_EQ(g.shape(), (Shape{2}));
  EXPECT_EQ(g.data(), (std::vector<float>{40, 20}));
}

TEST(OpsTest, RowExtracts1D) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Row(a, 1);
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r.data(), (std::vector<float>{4, 5, 6}));
}

TEST(OpsTest, MatMulBasic) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor c = MatMul(a, Tensor::Eye(2));
  EXPECT_EQ(c.data(), a.data());
}

TEST(OpsTest, SumAndMean) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
}

TEST(OpsTest, SumAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(SumAxis(a, 0).data(), (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(SumAxis(a, 1).data(), (std::vector<float>{6, 15}));
}

TEST(OpsTest, MeanAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(MeanAxis(a, 0).data(), (std::vector<float>{2.5f, 3.5f, 4.5f}));
  EXPECT_EQ(MeanAxis(a, 1).data(), (std::vector<float>{2, 5}));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor y = Softmax(a);
  for (int64_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 3; ++c) total += y.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
  EXPECT_GT(y.at({0, 2}), y.at({0, 0}));
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a = Tensor::FromVector({3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor b = Tensor::FromVector({3}, {0.0f, 1.0f, 2.0f});
  EXPECT_TRUE(AllClose(Softmax(a), Softmax(b), 1e-6f, 1e-5f));
  // Bind the result before iterating: data() returns a reference into the
  // tensor, which a temporary would destroy at the end of the range-init.
  Tensor sa = Softmax(a);
  for (float v : sa.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(OpsTest, BceWithLogitsMatchesManual) {
  Tensor logits = Tensor::FromVector({2}, {0.0f, 2.0f});
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  const float l0 = -std::log(0.5f);
  const float sig2 = 1.0f / (1.0f + std::exp(-2.0f));
  const float l1 = -std::log(1.0f - sig2);
  EXPECT_NEAR(BinaryCrossEntropyWithLogits(logits, targets).item(),
              (l0 + l1) / 2.0f, 1e-5f);
}

TEST(OpsTest, BceWithLogitsStableOnExtremeLogits) {
  Tensor logits = Tensor::FromVector({2}, {1000.0f, -1000.0f});
  Tensor targets = Tensor::FromVector({2}, {1.0f, 0.0f});
  float loss = BinaryCrossEntropyWithLogits(logits, targets).item();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5f);
}

TEST(OpsTest, AllCloseDetectsDifference) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector({2}, {1.0f, 2.1f});
  EXPECT_FALSE(AllClose(a, b, 1e-5f, 1e-5f));
  EXPECT_TRUE(AllClose(a, a));
}

TEST(OpsTest, AllCloseShapeMismatch) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector({1, 2}, {1.0f, 2.0f});
  EXPECT_FALSE(AllClose(a, b));
}

TEST(OpsTest, EmptyTensorOps) {
  Tensor a = Tensor::Zeros({0});
  Tensor b = Tensor::Zeros({0});
  EXPECT_EQ(Add(a, b).numel(), 0);
}

}  // namespace
}  // namespace tpgnn::tensor
