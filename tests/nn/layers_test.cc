#include <cmath>

#include <gtest/gtest.h>

#include "nn/init.h"
#include "nn/linear.h"
#include "nn/time_encoding.h"
#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor w = XavierUniform(100, 50, rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LT(v, bound);
  }
}

TEST(InitTest, ScaledUniformBounds) {
  Rng rng(2);
  Tensor w = ScaledUniform({64, 64}, 64, rng);
  for (float v : w.data()) {
    EXPECT_LE(std::abs(v), 0.125f);
  }
}

TEST(LinearTest, OutputShape) {
  Rng rng(3);
  Linear fc(4, 7, rng);
  Tensor x = Tensor::Uniform({5, 4}, -1, 1, rng);
  EXPECT_EQ(fc.Forward(x).shape(), (Shape{5, 7}));
}

TEST(LinearTest, NoBiasMapsZeroToZero) {
  Rng rng(4);
  Linear fc(3, 2, rng, /*bias=*/false);
  Tensor y = fc.Forward(Tensor::Zeros({1, 3}));
  EXPECT_EQ(y.data(), (std::vector<float>{0, 0}));
}

TEST(LinearTest, MatchesManualAffine) {
  Rng rng(5);
  Linear fc(2, 2, rng);
  Tensor x = Tensor::FromVector({1, 2}, {1.0f, -1.0f});
  Tensor y = fc.Forward(x);
  auto named = fc.NamedParameters();
  const Tensor& w = named[0].second;
  const Tensor& b = named[1].second;
  for (int64_t j = 0; j < 2; ++j) {
    float expect = w.at({0, j}) * 1.0f + w.at({1, j}) * -1.0f + b.at({j});
    EXPECT_NEAR(y.at({0, j}), expect, 1e-6f);
  }
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(6);
  Linear fc(3, 2, rng);
  Tensor x = Tensor::Uniform({2, 3}, -1, 1, rng, /*requires_grad=*/true);
  std::vector<Tensor> params = fc.Parameters();
  params.push_back(x);
  auto r = testing::GradCheck(
      [&fc, &x](const std::vector<Tensor>&) {
        Tensor y = fc.Forward(x);
        return tensor::Sum(tensor::Mul(y, y));
      },
      params);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Time2VecTest, OutputDimAndLinearFirstCoordinate) {
  Rng rng(9);
  Time2Vec t2v(6, rng);
  Tensor a = t2v.Forward(1.0f);
  Tensor b = t2v.Forward(2.0f);
  Tensor c = t2v.Forward(3.0f);
  EXPECT_EQ(a.shape(), (Shape{6}));
  // First coordinate is affine in t: equal increments.
  EXPECT_NEAR(b.at({0}) - a.at({0}), c.at({0}) - b.at({0}), 1e-5f);
}

TEST(Time2VecTest, PeriodicCoordinatesBounded) {
  Rng rng(10);
  Time2Vec t2v(8, rng);
  for (float t : {0.0f, 1.5f, 100.0f, 1e4f}) {
    Tensor y = t2v.Forward(t);
    for (int64_t i = 1; i < 8; ++i) {
      EXPECT_LE(std::abs(y.at({i})), 1.0f + 1e-6f);
    }
  }
}

TEST(Time2VecTest, DistinguishesTimestamps) {
  Rng rng(12);
  Time2Vec t2v(6, rng);
  Tensor a = t2v.Forward(1.0f);
  Tensor b = t2v.Forward(5.0f);
  EXPECT_FALSE(tensor::AllClose(a, b, 1e-4f, 1e-4f));
}

TEST(Time2VecTest, GradCheck) {
  Rng rng(13);
  Time2Vec t2v(4, rng);
  auto r = testing::GradCheck(
      [&t2v](const std::vector<Tensor>&) {
        Tensor y = t2v.Forward(1.7f);
        return tensor::Sum(tensor::Mul(y, y));
      },
      t2v.Parameters());
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(BochnerTimeEncodingTest, NormAndShape) {
  Rng rng(14);
  BochnerTimeEncoding enc(16, rng);
  Tensor y = enc.Forward(3.0f);
  EXPECT_EQ(y.shape(), (Shape{16}));
  // Each coordinate is cos(.)/sqrt(d) -> |y_i| <= 1/4.
  for (float v : y.data()) {
    EXPECT_LE(std::abs(v), 0.25f + 1e-6f);
  }
}

TEST(BochnerTimeEncodingTest, GradCheck) {
  Rng rng(15);
  BochnerTimeEncoding enc(4, rng);
  auto r = testing::GradCheck(
      [&enc](const std::vector<Tensor>&) {
        Tensor y = enc.Forward(0.9f);
        return tensor::Sum(tensor::Mul(y, y));
      },
      enc.Parameters());
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace tpgnn::nn
