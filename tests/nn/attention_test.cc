#include "nn/attention.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(AttentionTest, IdenticalKeysGiveUniformWeights) {
  Tensor q = Tensor::FromVector({1, 2}, {1.0f, 0.0f});
  Tensor k = Tensor::FromVector({3, 2}, {0.5f, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f});
  Tensor v = Tensor::FromVector({3, 1}, {1.0f, 2.0f, 3.0f});
  Tensor out = ScaledDotProductAttention(q, k, v);
  EXPECT_NEAR(out.at({0, 0}), 2.0f, 1e-5f);  // Uniform average of values.
}

TEST(AttentionTest, StrongMatchDominates) {
  Tensor q = Tensor::FromVector({1, 2}, {10.0f, 0.0f});
  Tensor k = Tensor::FromVector({2, 2}, {10.0f, 0.0f, -10.0f, 0.0f});
  Tensor v = Tensor::FromVector({2, 1}, {1.0f, -1.0f});
  Tensor out = ScaledDotProductAttention(q, k, v);
  EXPECT_GT(out.at({0, 0}), 0.99f);
}

TEST(AttentionTest, MaskExcludesKeys) {
  Tensor q = Tensor::FromVector({1, 2}, {1.0f, 1.0f});
  Tensor k = Tensor::FromVector({2, 2}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor v = Tensor::FromVector({2, 1}, {5.0f, -7.0f});
  Tensor mask = Tensor::FromVector({1, 2}, {1.0f, 0.0f});
  Tensor out = ScaledDotProductAttention(q, k, v, &mask);
  EXPECT_NEAR(out.at({0, 0}), 5.0f, 1e-4f);
}

TEST(AttentionTest, OutputShapeMultiQuery) {
  Rng rng(1);
  Tensor q = Tensor::Uniform({4, 3}, -1, 1, rng);
  Tensor k = Tensor::Uniform({6, 3}, -1, 1, rng);
  Tensor v = Tensor::Uniform({6, 5}, -1, 1, rng);
  EXPECT_EQ(ScaledDotProductAttention(q, k, v).shape(), (Shape{4, 5}));
}

TEST(AttentionTest, GradCheckThroughAttention) {
  Rng rng(2);
  Tensor q = Tensor::Uniform({2, 3}, -1, 1, rng, true);
  Tensor k = Tensor::Uniform({3, 3}, -1, 1, rng, true);
  Tensor v = Tensor::Uniform({3, 2}, -1, 1, rng, true);
  auto r = testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor out = ScaledDotProductAttention(q, k, v);
        return tensor::Sum(tensor::Mul(out, out));
      },
      {q, k, v});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(MultiheadAttentionTest, ShapeAndHeadSplit) {
  Rng rng(3);
  MultiheadAttention mha(8, 2, rng);
  EXPECT_EQ(mha.num_heads(), 2);
  Tensor q = Tensor::Uniform({3, 8}, -1, 1, rng);
  Tensor kv = Tensor::Uniform({5, 8}, -1, 1, rng);
  EXPECT_EQ(mha.Forward(q, kv, kv).shape(), (Shape{3, 8}));
}

TEST(MultiheadAttentionTest, MaskChangesOutput) {
  Rng rng(4);
  MultiheadAttention mha(4, 1, rng);
  Tensor q = Tensor::Uniform({1, 4}, -1, 1, rng);
  Tensor kv = Tensor::Uniform({3, 4}, -1, 1, rng);
  Tensor mask = Tensor::FromVector({1, 3}, {1.0f, 0.0f, 0.0f});
  Tensor full = mha.Forward(q, kv, kv);
  Tensor masked = mha.Forward(q, kv, kv, &mask);
  EXPECT_FALSE(tensor::AllClose(full, masked, 1e-5f, 1e-5f));
}

TEST(MultiheadAttentionTest, GradCheckParameters) {
  Rng rng(5);
  MultiheadAttention mha(4, 2, rng);
  Tensor q = Tensor::Uniform({2, 4}, -1, 1, rng);
  Tensor kv = Tensor::Uniform({3, 4}, -1, 1, rng);
  auto r = testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor out = mha.Forward(q, kv, kv);
        return tensor::Sum(tensor::Mul(out, out));
      },
      mha.Parameters(), /*eps=*/1e-2f, /*tol=*/3e-2f);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace tpgnn::nn
