// Tests for the design-choice extensions: the six EdgeAgg methods of
// Sec. IV-C and the Transformer global extractor proposed for large graphs.

#include <cmath>

#include <gtest/gtest.h>

#include "core/global_extractor.h"
#include "core/model.h"
#include "core/transformer_extractor.h"
#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"

namespace tpgnn::core {
namespace {

using graph::TemporalEdge;
using tensor::Shape;
using tensor::Tensor;

TEST(EdgeAggTest, AverageMatchesFormula) {
  Tensor u = Tensor::FromVector({2}, {2.0f, 4.0f});
  Tensor v = Tensor::FromVector({2}, {6.0f, -2.0f});
  EXPECT_EQ(AggregateEdge(EdgeAgg::kAverage, u, v).data(),
            (std::vector<float>{4.0f, 1.0f}));
}

TEST(EdgeAggTest, HadamardMatchesFormula) {
  Tensor u = Tensor::FromVector({2}, {2.0f, 4.0f});
  Tensor v = Tensor::FromVector({2}, {6.0f, -2.0f});
  EXPECT_EQ(AggregateEdge(EdgeAgg::kHadamard, u, v).data(),
            (std::vector<float>{12.0f, -8.0f}));
}

TEST(EdgeAggTest, WeightedL1IsAbsoluteDifference) {
  Tensor u = Tensor::FromVector({2}, {2.0f, -4.0f});
  Tensor v = Tensor::FromVector({2}, {6.0f, -2.0f});
  EXPECT_EQ(AggregateEdge(EdgeAgg::kWeightedL1, u, v).data(),
            (std::vector<float>{4.0f, 2.0f}));
}

TEST(EdgeAggTest, WeightedL2IsSquaredDifference) {
  Tensor u = Tensor::FromVector({2}, {2.0f, -4.0f});
  Tensor v = Tensor::FromVector({2}, {6.0f, -2.0f});
  EXPECT_EQ(AggregateEdge(EdgeAgg::kWeightedL2, u, v).data(),
            (std::vector<float>{16.0f, 4.0f}));
}

TEST(EdgeAggTest, ActivationIsBounded) {
  Tensor u = Tensor::FromVector({2}, {10.0f, -10.0f});
  Tensor v = Tensor::FromVector({2}, {10.0f, -10.0f});
  Tensor out = AggregateEdge(EdgeAgg::kActivation, u, v);
  for (float x : out.data()) {
    EXPECT_LE(std::abs(x), 1.0f);
  }
}

TEST(EdgeAggTest, ConcatenationDoublesWidth) {
  Tensor u = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor v = Tensor::FromVector({2}, {3.0f, 4.0f});
  Tensor out = AggregateEdge(EdgeAgg::kConcatenation, u, v);
  EXPECT_EQ(out.shape(), (Shape{4}));
  EXPECT_EQ(out.data(), (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(EdgeAggOutputDim(EdgeAgg::kConcatenation, 2), 4);
  EXPECT_EQ(EdgeAggOutputDim(EdgeAgg::kAverage, 2), 2);
}

TEST(EdgeAggTest, SymmetricAggregationsIgnoreDirection) {
  Rng rng(1);
  Tensor u = Tensor::Uniform({4}, -1, 1, rng);
  Tensor v = Tensor::Uniform({4}, -1, 1, rng);
  for (EdgeAgg agg : {EdgeAgg::kAverage, EdgeAgg::kHadamard,
                      EdgeAgg::kWeightedL1, EdgeAgg::kWeightedL2,
                      EdgeAgg::kActivation}) {
    EXPECT_TRUE(tensor::AllClose(AggregateEdge(agg, u, v),
                                 AggregateEdge(agg, v, u), 1e-6f, 1e-6f));
  }
  // Concatenation is the only direction-sensitive aggregation.
  EXPECT_FALSE(tensor::AllClose(AggregateEdge(EdgeAgg::kConcatenation, u, v),
                                AggregateEdge(EdgeAgg::kConcatenation, v, u),
                                1e-6f, 1e-6f));
}

TEST(EdgeAggTest, ExtractorAcceptsEveryAggregation) {
  Rng data_rng(2);
  Tensor h = Tensor::Uniform({3, 4}, -1, 1, data_rng);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  for (EdgeAgg agg : {EdgeAgg::kAverage, EdgeAgg::kHadamard,
                      EdgeAgg::kWeightedL1, EdgeAgg::kWeightedL2,
                      EdgeAgg::kActivation, EdgeAgg::kConcatenation}) {
    Rng rng(3);
    GlobalTemporalExtractor extractor(4, 6, rng,
                                      ExtractorReadout::kMeanState, agg);
    Tensor g = extractor.Forward(h, edges);
    EXPECT_EQ(g.shape(), (Shape{6}));
    for (float v : g.data()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

graph::TemporalGraph SmallGraph() {
  graph::TemporalGraph g(4, 3);
  g.SetNodeFeature(0, {0.1f, 0.2f, 0.0f});
  g.SetNodeFeature(1, {0.3f, 0.1f, 0.0f});
  g.SetNodeFeature(2, {0.2f, 0.4f, 0.0f});
  g.SetNodeFeature(3, {0.5f, 0.3f, 0.0f});
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  return g;
}

TEST(TransformerExtractorTest, OutputShapeAndFinite) {
  Rng rng(1);
  TransformerGlobalExtractor extractor(4, 8, /*num_heads=*/2, rng);
  Tensor h = Tensor::Uniform({4, 4}, -1, 1, rng);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  Tensor g = extractor.Forward(h, edges);
  EXPECT_EQ(g.shape(), (Shape{8}));
  for (float v : g.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(TransformerExtractorTest, EdgelessGraphGivesZeros) {
  Rng rng(2);
  TransformerGlobalExtractor extractor(4, 8, 2, rng);
  Tensor h = Tensor::Uniform({3, 4}, -1, 1, rng);
  Tensor g = extractor.Forward(h, {});
  for (float v : g.data()) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(TransformerExtractorTest, PositionalEncodingMakesOrderMatter) {
  Rng rng(3);
  TransformerGlobalExtractor extractor(4, 8, 2, rng);
  Tensor h = Tensor::Uniform({4, 4}, -1, 1, rng);
  std::vector<TemporalEdge> forward_order = {
      {0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}};
  std::vector<TemporalEdge> reversed = {
      {2, 3, 1.0}, {1, 2, 2.0}, {0, 1, 3.0}};
  EXPECT_FALSE(tensor::AllClose(extractor.Forward(h, forward_order),
                                extractor.Forward(h, reversed), 1e-6f,
                                1e-6f));
}

TEST(TransformerExtractorTest, GradFlowsToAllParameters) {
  Rng rng(4);
  TransformerGlobalExtractor extractor(3, 4, 2, rng);
  Tensor h = Tensor::Uniform({3, 3}, -1, 1, rng, /*requires_grad=*/true);
  std::vector<TemporalEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  Tensor g = extractor.Forward(h, edges);
  tensor::Sum(tensor::Mul(g, g)).Backward();
  for (const auto& [name, p] : extractor.NamedParameters()) {
    float norm = 0.0f;
    for (float gv : p.grad()) norm += gv * gv;
    EXPECT_GT(norm, 0.0f) << name;
  }
}

TEST(TransformerModelTest, EndToEndForwardAndName) {
  TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  config.global_module = GlobalModule::kTransformer;
  TpGnnModel model(config, 1);
  EXPECT_EQ(model.name(), "TP-GNN-SUM (transformer)");
  Rng rng(1);
  Tensor logit = model.ForwardLogit(SmallGraph(), true, rng);
  EXPECT_TRUE(std::isfinite(logit.item()));
  tensor::BinaryCrossEntropyWithLogits(logit, Tensor::Scalar(1.0f))
      .Backward();
  float norm = 0.0f;
  for (const auto& p : model.TrainableParameters()) {
    for (float gv : p.grad()) norm += gv * gv;
  }
  EXPECT_GT(norm, 0.0f);
}

TEST(EdgeAggModelTest, ConcatenationEdgeAggEndToEnd) {
  TpGnnConfig config;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  config.edge_agg = EdgeAgg::kConcatenation;
  TpGnnModel model(config, 2);
  Rng rng(1);
  Tensor logit = model.ForwardLogit(SmallGraph(), false, rng);
  EXPECT_TRUE(std::isfinite(logit.item()));
}

}  // namespace
}  // namespace tpgnn::core
