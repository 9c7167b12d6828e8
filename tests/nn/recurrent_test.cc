#include <cmath>

#include <gtest/gtest.h>

#include "nn/gru_cell.h"
#include "nn/lstm_cell.h"
#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(GruCellTest, OutputShape) {
  Rng rng(1);
  GruCell cell(3, 5, rng);
  Tensor x = Tensor::Uniform({2, 3}, -1, 1, rng);
  Tensor h = Tensor::Zeros({2, 5});
  EXPECT_EQ(cell.Forward(x, h).shape(), (Shape{2, 5}));
}

TEST(GruCellTest, OutputBounded) {
  Rng rng(2);
  GruCell cell(3, 4, rng);
  Tensor x = Tensor::Uniform({1, 3}, -10, 10, rng);
  Tensor h = Tensor::Uniform({1, 4}, -1, 1, rng);
  for (int step = 0; step < 50; ++step) {
    h = cell.Forward(x, h);
  }
  // Convex combination of tanh candidates and bounded start stays bounded.
  for (float v : h.data()) {
    EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
  }
}

TEST(GruCellTest, DependsOnInput) {
  Rng rng(3);
  GruCell cell(2, 3, rng);
  Tensor h = Tensor::Zeros({1, 3});
  Tensor x1 = Tensor::FromVector({1, 2}, {1.0f, 0.0f});
  Tensor x2 = Tensor::FromVector({1, 2}, {0.0f, 1.0f});
  EXPECT_FALSE(
      tensor::AllClose(cell.Forward(x1, h), cell.Forward(x2, h), 1e-5f, 1e-5f));
}

TEST(GruCellTest, DependsOnHiddenState) {
  Rng rng(4);
  GruCell cell(2, 3, rng);
  Tensor x = Tensor::FromVector({1, 2}, {0.5f, -0.5f});
  Tensor h1 = Tensor::Zeros({1, 3});
  Tensor h2 = Tensor::Full({1, 3}, 0.5f);
  EXPECT_FALSE(
      tensor::AllClose(cell.Forward(x, h1), cell.Forward(x, h2), 1e-5f, 1e-5f));
}

TEST(GruCellTest, ParameterCount) {
  Rng rng(5);
  GruCell cell(4, 8, rng);
  // 3 gates x (4x8 + 8x8 + 8).
  EXPECT_EQ(cell.ParameterCount(), 3 * (32 + 64 + 8));
}

TEST(GruCellTest, GradCheckAllParameters) {
  Rng rng(6);
  GruCell cell(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 2}, -1, 1, rng, true);
  Tensor h = Tensor::Uniform({1, 3}, -1, 1, rng, true);
  std::vector<Tensor> params = cell.Parameters();
  params.push_back(x);
  params.push_back(h);
  auto r = testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor out = cell.Forward(x, h);
        return tensor::Sum(tensor::Mul(out, out));
      },
      params);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GruCellTest, GradThroughUnrolledSequence) {
  Rng rng(7);
  GruCell cell(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 2}, -1, 1, rng, true);
  auto r = testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor h = Tensor::Zeros({1, 3});
        for (int step = 0; step < 4; ++step) {
          h = cell.Forward(x, h);
        }
        return tensor::Sum(tensor::Mul(h, h));
      },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(LstmCellTest, OutputShapes) {
  Rng rng(8);
  LstmCell cell(3, 5, rng);
  auto s0 = cell.InitialState(2);
  EXPECT_EQ(s0.h.shape(), (Shape{2, 5}));
  Tensor x = Tensor::Uniform({2, 3}, -1, 1, rng);
  auto s1 = cell.Forward(x, s0);
  EXPECT_EQ(s1.h.shape(), (Shape{2, 5}));
  EXPECT_EQ(s1.c.shape(), (Shape{2, 5}));
}

TEST(LstmCellTest, HiddenBoundedByTanh) {
  Rng rng(9);
  LstmCell cell(2, 4, rng);
  auto s = cell.InitialState(1);
  Tensor x = Tensor::Uniform({1, 2}, -5, 5, rng);
  for (int step = 0; step < 20; ++step) {
    s = cell.Forward(x, s);
  }
  for (float v : s.h.data()) {
    EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
  }
}

TEST(LstmCellTest, GradCheck) {
  Rng rng(10);
  LstmCell cell(2, 3, rng);
  Tensor x = Tensor::Uniform({1, 2}, -1, 1, rng, true);
  std::vector<Tensor> params = cell.Parameters();
  params.push_back(x);
  auto r = testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        auto s = cell.InitialState(1);
        s = cell.Forward(x, s);
        s = cell.Forward(x, s);
        return tensor::Sum(tensor::Mul(s.h, s.h));
      },
      params);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(LstmCellTest, StatePersistsInformation) {
  Rng rng(11);
  LstmCell cell(2, 3, rng);
  Tensor spike = Tensor::FromVector({1, 2}, {5.0f, -5.0f});
  Tensor silence = Tensor::Zeros({1, 2});
  auto with_spike = cell.Forward(spike, cell.InitialState(1));
  auto without = cell.Forward(silence, cell.InitialState(1));
  for (int step = 0; step < 3; ++step) {
    with_spike = cell.Forward(silence, with_spike);
    without = cell.Forward(silence, without);
  }
  EXPECT_FALSE(tensor::AllClose(with_spike.h, without.h, 1e-4f, 1e-4f));
}

}  // namespace
}  // namespace tpgnn::nn
