// The global extractor's two-phase inference sweep (input projections as
// multi-row GEMMs over chunks of 64 edges, then the recurrent steps) at edge
// counts around the chunk boundary:
//  * scalar mode: bit-identical to the recorded (autograd) forward;
//  * active mode: bit-identical to one-row input projections and one
//    GruCell::Step per edge;
//  * active mode: a session scored through serving is bit-identical to the
//    offline forward on the same graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/global_extractor.h"
#include "core/model.h"
#include "graph/temporal_graph.h"
#include "model/registry.h"
#include "nn/gru_cell.h"
#include "serve/session_shard.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tpgnn::core {
namespace {

using graph::TemporalEdge;
using tensor::Tensor;

// Empty, one edge, one under / at / over a chunk, and three chunks plus a
// partial one.
const int64_t kEdgeCounts[] = {0, 1, 63, 64, 65, 197};

struct Shape {
  int64_t node_dim;
  int64_t hidden_dim;
};

// The default model's extractor (38-wide SUM rows into a 32-wide GRU) and an
// odd shape that leaves scalar GEMM columns and masked map tails.
const Shape kShapes[] = {{38, 32}, {5, 7}};

std::vector<TemporalEdge> RandomEdges(int64_t count, int64_t num_nodes,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<TemporalEdge> edges;
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += rng.UniformFloat(0.0f, 2.0f);
    edges.push_back({rng.UniformInt(0, num_nodes - 1),
                     rng.UniformInt(0, num_nodes - 1), t});
  }
  return edges;
}

void ExpectSameBits(const Tensor& expected, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(expected.numel(), got.numel()) << what;
  EXPECT_EQ(std::memcmp(expected.data().data(), got.data().data(),
                        sizeof(float) * static_cast<size_t>(got.numel())),
            0)
      << what;
}

std::string Tag(const Shape& shape, ExtractorReadout readout, int64_t edges) {
  return "node_dim=" + std::to_string(shape.node_dim) +
         " hidden=" + std::to_string(shape.hidden_dim) +
         (readout == ExtractorReadout::kMeanState ? " mean" : " last") +
         " E=" + std::to_string(edges);
}

TEST(ExtractorSweepTest, ScalarModeMatchesRecordedForwardBitwise) {
  tensor::ScopedSimdMode scalar(tensor::SimdMode::kScalar);
  for (const Shape& shape : kShapes) {
    for (ExtractorReadout readout :
         {ExtractorReadout::kMeanState, ExtractorReadout::kLastState}) {
      Rng rng(41);
      GlobalTemporalExtractor extractor(shape.node_dim, shape.hidden_dim, rng,
                                        readout);
      const Tensor h = Tensor::Uniform({9, shape.node_dim}, -1, 1, rng);
      for (int64_t count : kEdgeCounts) {
        const std::vector<TemporalEdge> edges = RandomEdges(count, 9, 42);
        const Tensor recorded = extractor.Forward(h, edges);
        Tensor inference;
        {
          tensor::NoGradGuard no_grad;
          inference = extractor.Forward(h, edges);
        }
        ExpectSameBits(recorded, inference, Tag(shape, readout, count));
      }
    }
  }
}

TEST(ExtractorSweepTest, ActiveModeMatchesPerEdgeStepsBitwise) {
  for (const Shape& shape : kShapes) {
    for (ExtractorReadout readout :
         {ExtractorReadout::kMeanState, ExtractorReadout::kLastState}) {
      // The extractor builds its GRU first from the shared rng, so a cell
      // built from the same seed holds the same parameters.
      Rng rng(43);
      GlobalTemporalExtractor extractor(shape.node_dim, shape.hidden_dim, rng,
                                        readout);
      Rng twin_rng(43);
      nn::GruCell cell(shape.node_dim, shape.hidden_dim, twin_rng);
      const Tensor h = Tensor::Uniform({9, shape.node_dim}, -1, 1, rng);
      tensor::NoGradGuard no_grad;
      for (int64_t count : kEdgeCounts) {
        const std::vector<TemporalEdge> edges = RandomEdges(count, 9, 44);
        // One edge at a time: Average EdgeAgg, one-row input projections
        // and one Step per edge, the mean accumulated edge by edge.
        const tensor::Kernels& ker = tensor::ActiveKernels();
        const size_t d = static_cast<size_t>(shape.hidden_dim);
        const int64_t k = shape.node_dim;
        std::vector<float> state(d, 0.0f);
        std::vector<float> acc(d, 0.0f);
        std::vector<float> edge(static_cast<size_t>(k));
        std::vector<float> z(d), r(d), xn(d), hu(d), cand(d);
        for (const TemporalEdge& e : edges) {
          const float* u = h.data().data() + e.src * k;
          const float* v = h.data().data() + e.dst * k;
          for (int64_t i = 0; i < k; ++i) {
            edge[static_cast<size_t>(i)] = (u[i] + v[i]) * 0.5f;
          }
          for (std::vector<float>* row : {&z, &r, &xn}) {
            std::fill(row->begin(), row->end(), 0.0f);
          }
          cell.ProjectInputs(ker, edge.data(), 1, z.data(), r.data(),
                             xn.data());
          cell.Step(ker, state.data(), z.data(), r.data(), xn.data(),
                    hu.data(), cand.data(), state.data());
          for (size_t j = 0; j < d; ++j) acc[j] += state[j];
        }
        if (count > 0) {
          for (float& a : acc) a *= 1.0f / static_cast<float>(count);
        }
        const std::vector<float>& want =
            readout == ExtractorReadout::kMeanState ? acc : state;
        ExpectSameBits(
            Tensor::FromVector({shape.hidden_dim}, want),
            extractor.Forward(h, edges),
            std::string(tensor::ActiveKernels().name) + " " +
                Tag(shape, readout, count));
      }
    }
  }
}

TEST(ExtractorSweepTest, ServingMatchesOfflineForwardBitwiseInActiveMode) {
  const TpGnnConfig config;  // The paper default: SUM, 38-wide rows.
  model::ModelRegistry registry(config, /*seed=*/45);
  TpGnnModel& model = registry.initial_model();
  serve::SessionShard shard(registry, serve::ShardOptions{},
                            /*metrics=*/nullptr);
  constexpr int64_t kNodes = 12;
  uint64_t id = 1;
  for (int64_t count : kEdgeCounts) {
    graph::TemporalGraph g(kNodes, config.feature_dim);
    Rng rng(46 + static_cast<uint64_t>(count));
    std::vector<serve::NodeInit> features;
    for (int64_t node = 0; node < kNodes; ++node) {
      std::vector<float> f(static_cast<size_t>(config.feature_dim));
      for (float& x : f) x = rng.UniformFloat(-1.0f, 1.0f);
      g.SetNodeFeature(node, f);
      features.push_back({node, f});
    }
    ASSERT_TRUE(shard
                    .BeginSession(id, kNodes, config.feature_dim, features,
                                  /*now=*/0.0)
                    .ok());
    for (const TemporalEdge& e : RandomEdges(count, kNodes, 47)) {
      g.AddEdge(e.src, e.dst, e.time);
      ASSERT_TRUE(shard.AddEdge(id, e.src, e.dst, e.time, /*now=*/0.0).ok());
    }
    serve::ScoreResult result;
    ASSERT_TRUE(shard.Score(id, &result).ok());
    float offline = 0.0f;
    {
      tensor::NoGradGuard no_grad;
      Rng order_rng(0);
      offline = model.ForwardLogit(g, /*training=*/false, order_rng).item();
    }
    EXPECT_EQ(result.logit, offline)
        << tensor::ActiveKernels().name << " E=" << count;
    ASSERT_TRUE(shard.EndSession(id).ok());
    ++id;
  }
}

}  // namespace
}  // namespace tpgnn::core
