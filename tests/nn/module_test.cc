#include "nn/module.h"

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tpgnn::nn {
namespace {

class Composite : public Module {
 public:
  explicit Composite(Rng& rng) : inner_(2, 3, rng) {
    own_ = RegisterParameter("own", tensor::Tensor::Zeros({4}));
    RegisterChild("inner", &inner_);
  }

  Linear inner_;
  tensor::Tensor own_;
};

TEST(ModuleTest, ParametersIncludeChildren) {
  Rng rng(1);
  Composite m(rng);
  // own (4) + inner weight (2x3) + inner bias (3).
  EXPECT_EQ(m.Parameters().size(), 3u);
  EXPECT_EQ(m.ParameterCount(), 4 + 6 + 3);
}

TEST(ModuleTest, NamedParametersArePrefixed) {
  Rng rng(2);
  Composite m(rng);
  auto named = m.NamedParameters();
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].first, "own");
  EXPECT_EQ(named[1].first, "inner/weight");
  EXPECT_EQ(named[2].first, "inner/bias");
}

TEST(ModuleTest, RegisteredParametersRequireGrad) {
  Rng rng(3);
  Composite m(rng);
  for (const auto& p : m.Parameters()) {
    EXPECT_TRUE(p.requires_grad());
  }
}

TEST(ModuleTest, ParametersAliasModuleStorage) {
  Rng rng(4);
  Composite m(rng);
  auto params = m.Parameters();
  params[0].MutableData()[0] = 42.0f;
  EXPECT_EQ(m.own_.data()[0], 42.0f);
}

}  // namespace
}  // namespace tpgnn::nn
