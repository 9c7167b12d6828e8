#include "core/global_extractor.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"

namespace tpgnn::core {
namespace {

using graph::TemporalEdge;
using tensor::Shape;
using tensor::Tensor;

TEST(GlobalExtractorTest, OutputShape) {
  Rng rng(1);
  GlobalTemporalExtractor extractor(4, 8, rng);
  Tensor h = Tensor::Uniform({3, 4}, -1, 1, rng);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  EXPECT_EQ(extractor.Forward(h, edges).shape(), (Shape{8}));
}

TEST(GlobalExtractorTest, EdgelessGraphGivesZeroState) {
  Rng rng(2);
  GlobalTemporalExtractor extractor(4, 6, rng);
  Tensor h = Tensor::Uniform({3, 4}, -1, 1, rng);
  Tensor g = extractor.Forward(h, {});
  for (float v : g.data()) EXPECT_EQ(v, 0.0f);
}

TEST(GlobalExtractorTest, EdgeOrderChangesEmbedding) {
  Rng rng(3);
  GlobalTemporalExtractor extractor(4, 8, rng);
  Tensor h = Tensor::Uniform({4, 4}, -1, 1, rng);
  std::vector<TemporalEdge> order1 = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  std::vector<TemporalEdge> order2 = {{2, 3, 3.0}, {1, 2, 2.0}, {0, 1, 1.0}};
  Tensor g1 = extractor.Forward(h, order1);
  Tensor g2 = extractor.Forward(h, order2);
  EXPECT_FALSE(tensor::AllClose(g1, g2, 1e-6f, 1e-6f));
}

TEST(GlobalExtractorTest, AverageEdgeAggIsSymmetricInEndpoints) {
  // With a single edge, swapping src/dst gives the same edge embedding,
  // hence the same graph embedding.
  Rng rng(4);
  GlobalTemporalExtractor extractor(4, 8, rng);
  Tensor h = Tensor::Uniform({2, 4}, -1, 1, rng);
  Tensor g1 = extractor.Forward(h, {{0, 1, 1.0}});
  Tensor g2 = extractor.Forward(h, {{1, 0, 1.0}});
  EXPECT_TRUE(tensor::AllClose(g1, g2, 1e-7f, 1e-7f));
}

TEST(GlobalExtractorTest, DependsOnNodeEmbeddings) {
  Rng rng(5);
  GlobalTemporalExtractor extractor(4, 8, rng);
  Tensor h1 = Tensor::Uniform({2, 4}, -1, 1, rng);
  Tensor h2 = Tensor::Uniform({2, 4}, -1, 1, rng);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}};
  EXPECT_FALSE(tensor::AllClose(extractor.Forward(h1, edges),
                                extractor.Forward(h2, edges), 1e-6f, 1e-6f));
}

TEST(GlobalExtractorTest, LastEdgesDominateLongSequences) {
  // GRU state summarises the full sequence; identical suffixes after
  // different prefixes must still differ (information is retained).
  Rng rng(6);
  GlobalTemporalExtractor extractor(3, 6, rng);
  Tensor h = Tensor::Uniform({4, 3}, -1, 1, rng);
  std::vector<TemporalEdge> a = {{0, 1, 1}, {2, 3, 2}, {1, 2, 3}};
  std::vector<TemporalEdge> b = {{2, 3, 1}, {0, 1, 2}, {1, 2, 3}};
  EXPECT_FALSE(tensor::AllClose(extractor.Forward(h, a),
                                extractor.Forward(h, b), 1e-6f, 1e-6f));
}

TEST(GlobalExtractorTest, GradCheck) {
  Rng rng(7);
  GlobalTemporalExtractor extractor(3, 4, rng);
  Tensor h = Tensor::Uniform({3, 3}, -1, 1, rng, /*requires_grad=*/true);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 3.0}};
  std::vector<Tensor> params = extractor.Parameters();
  params.push_back(h);
  auto r = tpgnn::testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor g = extractor.Forward(h, edges);
        return tensor::Sum(tensor::Mul(g, g));
      },
      params, /*eps=*/1e-2f, /*tol=*/3e-2f);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace tpgnn::core
