// Coverage for the fused per-edge ops and zero-copy row views added with
// the tensor memory subsystem:
//  * GatherRows forward values and gradients, checked both numerically and
//    against IndexSelect, including duplicate rows.
//  * Affine / Affine2 / MulAdd / GruBlend forward + gradcheck.
//  * RowSpanOf / MutableRowSpan aliasing rules.

#include <gtest/gtest.h>

#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace tpgnn::tensor {
namespace {

using testing::GradCheck;
using testing::GradCheckResult;

Tensor SquaredSum(const Tensor& t) { return Sum(Mul(t, t)); }

TEST(GatherRowsTest, ForwardMatchesIndexSelectWithDuplicates) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  const std::vector<int64_t> idx = {2, 0, 2, 1};
  Tensor gathered = GatherRows(a, idx);
  Tensor reference = IndexSelect(a, idx);
  ASSERT_EQ(gathered.shape(), reference.shape());
  EXPECT_EQ(gathered.data(), reference.data());
  EXPECT_EQ(gathered.data(), (std::vector<float>{5, 6, 1, 2, 5, 6, 3, 4}));
}

TEST(GatherRowsTest, GradientMatchesIndexSelectComposition) {
  const std::vector<int64_t> idx = {1, 1, 0, 2};
  Tensor a = Tensor::FromVector({3, 2}, {0.5f, -1, 2, 0.25f, -3, 1.5f},
                                /*requires_grad=*/true);
  Tensor b = Tensor::FromVector({3, 2}, {0.5f, -1, 2, 0.25f, -3, 1.5f},
                                /*requires_grad=*/true);

  SquaredSum(GatherRows(a, idx)).Backward();
  SquaredSum(IndexSelect(b, idx)).Backward();
  ASSERT_EQ(a.grad().size(), b.grad().size());
  for (size_t i = 0; i < a.grad().size(); ++i) {
    EXPECT_EQ(a.grad()[i], b.grad()[i]) << "element " << i;
  }
}

TEST(GatherRowsTest, GradCheckWithDuplicateIndices) {
  Rng rng(5);
  Tensor a = Tensor::Uniform({4, 3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return SquaredSum(GatherRows(p[0], {3, 1, 3, 0, 3}));
      },
      {a});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AffineTest, BitIdenticalToMatMulAddAndGradChecks) {
  Rng rng(3);
  Tensor x = Tensor::Uniform({2, 4}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor w = Tensor::Uniform({4, 3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor b = Tensor::Uniform({3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);

  Tensor fused = Affine(x, w, b);
  Tensor reference = Add(MatMul(x, w), b);
  EXPECT_EQ(fused.data(), reference.data());

  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return SquaredSum(Affine(p[0], p[1], p[2]));
      },
      {x, w, b});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Affine2Test, MatchesUnfusedChainAndGradChecks) {
  Rng rng(4);
  Tensor x = Tensor::Uniform({2, 4}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor w = Tensor::Uniform({4, 3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor h = Tensor::Uniform({2, 5}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor u = Tensor::Uniform({5, 3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor b = Tensor::Uniform({3}, -1.0f, 1.0f, rng, /*requires_grad=*/true);

  // Both GEMMs accumulate into one buffer, so only closeness (not bit
  // identity) is promised against the unfused chain.
  Tensor fused = Affine2(x, w, h, u, b);
  Tensor reference = Add(Add(MatMul(x, w), MatMul(h, u)), b);
  EXPECT_TRUE(AllClose(fused, reference, 1e-5f, 1e-5f));

  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return SquaredSum(Affine2(p[0], p[1], p[2], p[3], p[4]));
      },
      {x, w, h, u, b});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(FusedElementwiseTest, MulAddForwardAndGradCheck) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = Tensor::FromVector({2, 2}, {0.5f, -0.5f, 1, -1});
  EXPECT_EQ(MulAdd(a, b, c).data(), (std::vector<float>{5.5f, 11.5f, 22, 31}));

  Rng rng(6);
  Tensor ga = Tensor::Uniform({6}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor gb = Tensor::Uniform({6}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor gc = Tensor::Uniform({6}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return SquaredSum(MulAdd(p[0], p[1], p[2]));
      },
      {ga, gb, gc});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(FusedElementwiseTest, GruBlendBitIdenticalToUnfusedChain) {
  Rng rng(8);
  Tensor z = Tensor::Uniform({1, 6}, 0.1f, 0.9f, rng, /*requires_grad=*/true);
  Tensor h = Tensor::Uniform({1, 6}, -1.0f, 1.0f, rng, /*requires_grad=*/true);
  Tensor n = Tensor::Uniform({1, 6}, -1.0f, 1.0f, rng, /*requires_grad=*/true);

  Tensor fused = GruBlend(z, h, n);
  Tensor ones = Tensor::Ones({1, 6});
  Tensor reference = Add(Mul(z, h), Mul(Sub(ones, z), n));
  EXPECT_EQ(fused.data(), reference.data());

  GradCheckResult r = GradCheck(
      [](const std::vector<Tensor>& p) {
        return SquaredSum(GruBlend(p[0], p[1], p[2]));
      },
      {z, h, n});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(RowViewTest, RowSpanOfReadsTheRowInPlace) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  ConstRowSpan row = RowSpanOf(a, 1);
  ASSERT_EQ(row.size, 3);
  EXPECT_EQ(row.data[0], 4.0f);
  EXPECT_EQ(row.data[2], 6.0f);
  // The span aliases the tensor's storage; no copy is made.
  EXPECT_EQ(row.data, a.data().data() + 3);
}

TEST(RowViewTest, MutableRowSpanWritesThrough) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  RowSpan row = MutableRowSpan(a, 0);
  ASSERT_EQ(row.size, 3);
  row.data[0] = -1.0f;
  row.data[2] = -3.0f;
  EXPECT_EQ(a.data(), (std::vector<float>{-1, 2, -3, 4, 5, 6}));
}

TEST(RowViewTest, MutableRowSpanRejectsAutogradTensors) {
  Tensor leaf = Tensor::Zeros({2, 3}, /*requires_grad=*/true);
  EXPECT_DEATH(MutableRowSpan(leaf, 0), "Check failed");
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6},
                                /*requires_grad=*/true);
  Tensor recorded = Tanh(a);
  EXPECT_DEATH(MutableRowSpan(recorded, 0), "Check failed");
}

}  // namespace
}  // namespace tpgnn::tensor
