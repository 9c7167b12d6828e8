// The two whole-recurrence training ops against the per-op compositions
// they replaced: TemporalPropagation's SUM fold (Eqs. 3-5, one
// "SumPropagation" node) and GruCell::ForwardSequence under the global
// extractor (Eqs. 7-10, one "GruSequence" node). The references below are
// those compositions, written out with tensor ops on the modules' own
// parameter tensors. Each case checks
//  * the forward, bit for bit, in scalar mode and (where the CPU has it)
//    AVX2 mode;
//  * every parameter and input gradient, within 1e-5 of the largest
//    reference gradient;
//  * the gradients against central finite differences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/static_gnn.h"
#include "core/global_extractor.h"
#include "core/model.h"
#include "core/temporal_propagation.h"
#include "graph/pooling.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "testing/gradcheck.h"
#include "util/buffer_pool.h"

namespace tpgnn::core {
namespace {

using graph::TemporalEdge;
using graph::TemporalGraph;
using tensor::Add;
using tensor::Affine;
using tensor::Affine2;
using tensor::Concat;
using tensor::GatherRows;
using tensor::GruBlend;
using tensor::MatMul;
using tensor::Mul;
using tensor::MulAdd;
using tensor::Reshape;
using tensor::Scale;
using tensor::Sigmoid;
using tensor::Sub;
using tensor::Tanh;
using tensor::Tensor;

using Params = std::map<std::string, Tensor>;

Params ByName(const nn::Module& module) {
  Params params;
  for (const auto& [name, tensor] : module.NamedParameters()) {
    params[name] = tensor;
  }
  return params;
}

// --- References: the per-op compositions -----------------------------------

Tensor RefTime2Vec(const Params& p, const std::string& prefix, float t) {
  Tensor linear = Add(Scale(p.at(prefix + "w0"), t), p.at(prefix + "phi0"));
  Tensor periodic =
      tensor::Sin(Add(Scale(p.at(prefix + "w"), t), p.at(prefix + "phi")));
  return Concat({linear, periodic}, /*axis=*/0);
}

// TemporalPropagation::Forward for the SUM updater, one recorded op per
// step, from the embedded features `x`. `prefix` names the propagation
// module's parameters.
Tensor RefSumPropagation(const TpGnnConfig& config, const Params& p,
                         const std::string& prefix, const Tensor& x,
                         const std::vector<TemporalEdge>& edge_order,
                         double max_time) {
  const int64_t n = x.size(0);
  const std::string tp = prefix + "time2vec/";
  const bool with_time = p.count(tp + "w0") > 0;
  const bool invariant =
      with_time && config.time_basis == TimeBasis::kInvariant;
  std::vector<Tensor> xhat(static_cast<size_t>(n));
  std::vector<Tensor> mhat;
  std::vector<Tensor> phasor_sin;
  std::vector<Tensor> phasor_cos;
  std::vector<float> time_sum;
  std::vector<float> count;
  for (int64_t v = 0; v < n; ++v) {
    xhat[static_cast<size_t>(v)] = tensor::Row(x, v);
  }
  if (with_time) {
    if (invariant) {
      phasor_sin.assign(static_cast<size_t>(n),
                        Tensor::Zeros({config.time_dim - 1}));
      phasor_cos.assign(static_cast<size_t>(n),
                        Tensor::Zeros({config.time_dim - 1}));
      time_sum.assign(static_cast<size_t>(n), 0.0f);
      count.assign(static_cast<size_t>(n), 0.0f);
    } else {
      mhat.assign(static_cast<size_t>(n), Tensor::Zeros({config.time_dim}));
    }
  }
  for (const TemporalEdge& e : edge_order) {
    const size_t v = static_cast<size_t>(e.dst);
    const size_t u = static_cast<size_t>(e.src);
    xhat[v] = Add(xhat[u], xhat[v]);
    if (config.stabilize_sum) {
      xhat[v] = Tanh(xhat[v]);
    }
    if (!with_time) {
      continue;
    }
    if (invariant) {
      const float tf = static_cast<float>(e.time);
      Tensor theta = Add(Scale(p.at(tp + "w"), tf), p.at(tp + "phi"));
      phasor_sin[v] = Add(tensor::Sin(theta), phasor_sin[v]);
      phasor_cos[v] = Add(tensor::Cos(theta), phasor_cos[v]);
      time_sum[v] = tf + time_sum[v];
      count[v] = 1.0f + count[v];
    } else {
      const float t =
          static_cast<float>(NormalizeTime(config, e.time, max_time));
      mhat[v] = Add(RefTime2Vec(p, tp, t), mhat[v]);
      if (config.stabilize_sum) {
        mhat[v] = Tanh(mhat[v]);
      }
    }
  }
  if (invariant) {
    const float sf = static_cast<float>(
        (config.normalize_time && max_time > 0.0) ? config.time_scale / max_time
                                                  : 1.0);
    const float tmax = static_cast<float>(max_time);
    Tensor rot_cos = tensor::Cos(Scale(p.at(tp + "w"), tmax));
    Tensor rot_sin = tensor::Sin(Scale(p.at(tp + "w"), tmax));
    std::vector<Tensor> mvec(static_cast<size_t>(n));
    for (int64_t v = 0; v < n; ++v) {
      const size_t vi = static_cast<size_t>(v);
      const float sn = time_sum[vi] * sf;
      Tensor lin = Add(Scale(p.at(tp + "w0"), sn),
                       Scale(p.at(tp + "phi0"), count[vi]));
      Tensor per = Sub(Mul(phasor_sin[vi], rot_cos),
                       Mul(phasor_cos[vi], rot_sin));
      Tensor mv = Concat({lin, per}, /*axis=*/0);
      if (config.stabilize_sum) {
        const float invk = count[vi] > 0.0f ? 1.0f / count[vi] : 1.0f;
        mv = Scale(mv, invk);
      }
      mvec[vi] = mv;
    }
    return Tanh(
        Concat({tensor::Stack(xhat), tensor::Stack(mvec)}, /*axis=*/1));
  }
  if (with_time) {
    return Tanh(
        Concat({tensor::Stack(xhat), tensor::Stack(mhat)}, /*axis=*/1));
  }
  return Tanh(tensor::Stack(xhat));
}

// TemporalPropagation::Forward (SUM updater or no propagation) from the
// graph, embedding included.
Tensor RefPropagation(const TpGnnConfig& config, const Params& p,
                      const std::string& prefix, const TemporalGraph& graph,
                      const std::vector<TemporalEdge>& order) {
  Tensor x = Affine(graph.FeatureMatrix(), p.at(prefix + "embed/weight"),
                    p.at(prefix + "embed/bias"));
  if (!config.use_temporal_propagation()) {
    return Tanh(x);
  }
  return RefSumPropagation(config, p, prefix, x, order, graph.MaxTime());
}

// GruCell::Forward.
Tensor RefGruStep(const Params& p, const std::string& prefix, const Tensor& x,
                  const Tensor& h) {
  const auto w = [&](const char* name) { return p.at(prefix + name); };
  Tensor z = Sigmoid(Affine2(x, w("wz"), h, w("uz"), w("bz")));
  Tensor r = Sigmoid(Affine2(x, w("wr"), h, w("ur"), w("br")));
  Tensor n = Tanh(MulAdd(r, MatMul(h, w("un")), Affine(x, w("wn"), w("bn"))));
  return GruBlend(z, h, n);
}

// GlobalTemporalExtractor::Forward with one GRU step per edge. `prefix`
// names the extractor's GRU parameters.
Tensor RefExtractor(const Params& p, const std::string& prefix, EdgeAgg agg,
                    ExtractorReadout readout, const Tensor& h,
                    const std::vector<TemporalEdge>& order) {
  const int64_t d = p.at(prefix + "bz").numel();
  const int64_t m = static_cast<int64_t>(order.size());
  Tensor state = Tensor::Zeros({1, d});
  if (m == 0) {
    return Reshape(state, {d});
  }
  std::vector<int64_t> srcs;
  std::vector<int64_t> dsts;
  for (const TemporalEdge& e : order) {
    srcs.push_back(e.src);
    dsts.push_back(e.dst);
  }
  Tensor edges = AggregateEdge(agg, GatherRows(h, srcs), GatherRows(h, dsts));
  std::vector<Tensor> states;
  for (int64_t i = 0; i < m; ++i) {
    state = RefGruStep(p, prefix, GatherRows(edges, {i}), state);
    states.push_back(state);
  }
  if (readout == ExtractorReadout::kLastState) {
    return Reshape(state, {d});
  }
  return tensor::MeanAxis(Concat(states, /*axis=*/0), /*axis=*/0);
}

// --- Checks -----------------------------------------------------------------

void ExpectSameBits(const Tensor& expected, const Tensor& got,
                    const std::string& tag) {
  ASSERT_EQ(expected.shape(), got.shape()) << tag;
  EXPECT_EQ(std::memcmp(expected.data().data(), got.data().data(),
                        expected.data().size() * sizeof(float)),
            0)
      << tag;
}

std::vector<tensor::SimdMode> Modes() {
  std::vector<tensor::SimdMode> modes = {tensor::SimdMode::kScalar};
  if (tensor::SimdModeSupported(tensor::SimdMode::kAvx2)) {
    modes.push_back(tensor::SimdMode::kAvx2);
  }
  return modes;
}

using Forward = std::function<Tensor()>;

// A scalar loss with a distinct weight per output element.
Tensor WeightedSum(const Tensor& out) {
  std::vector<float> w(static_cast<size_t>(out.numel()));
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.5f + 0.25f * static_cast<float>(i % 7) -
           0.1f * static_cast<float>(i % 3);
  }
  return tensor::Sum(Mul(out, Tensor::FromVector(out.shape(), std::move(w))));
}

std::vector<std::vector<float>> GradsOf(const Forward& forward,
                                        std::vector<Tensor>& leaves) {
  for (Tensor& leaf : leaves) leaf.ZeroGrad();
  WeightedSum(forward()).Backward();
  std::vector<std::vector<float>> grads;
  for (const Tensor& leaf : leaves) grads.push_back(leaf.grad());
  return grads;
}

// The fused forward against the reference in every mode (bitwise), their
// gradients over `leaves` (within 1e-5 of the largest reference gradient),
// and the fused gradients against finite differences.
void ExpectMatchesReference(const Forward& fused, const Forward& reference,
                            std::vector<Tensor> leaves,
                            const std::string& tag) {
  for (tensor::SimdMode mode : Modes()) {
    tensor::ScopedSimdMode pin(mode);
    const std::string mtag = tag + " [" + tensor::SimdModeName(mode) + "]";
    const Tensor want = reference();
    const Tensor got = fused();
    ExpectSameBits(want, got, mtag + " forward");
    if (!got.requires_grad()) {
      continue;  // Nothing it depends on requires grad (no edges).
    }
    const auto ref_grads = GradsOf(reference, leaves);
    const auto fused_grads = GradsOf(fused, leaves);
    float largest = 0.0f;
    for (const auto& g : ref_grads) {
      for (float v : g) largest = std::max(largest, std::abs(v));
    }
    ASSERT_GT(largest, 0.0f) << mtag;
    for (size_t l = 0; l < leaves.size(); ++l) {
      for (size_t i = 0; i < ref_grads[l].size(); ++i) {
        EXPECT_LE(std::abs(fused_grads[l][i] - ref_grads[l][i]),
                  1e-5f * largest)
            << mtag << " leaf " << l << " element " << i << ": fused "
            << fused_grads[l][i] << " vs reference " << ref_grads[l][i];
      }
    }
  }
  if (!fused().requires_grad()) {
    return;
  }
  const auto r = tpgnn::testing::GradCheck(
      [&](const std::vector<Tensor>&) { return WeightedSum(fused()); },
      leaves, /*eps=*/1e-2f, /*tol=*/3e-2f);
  EXPECT_TRUE(r.ok) << tag << " finite differences: " << r.message;
}

// --- Graphs -----------------------------------------------------------------

TemporalGraph Nodes(int64_t n) {
  TemporalGraph g(n, 3);
  for (int64_t v = 0; v < n; ++v) {
    g.SetNodeFeature(v, {0.1f * static_cast<float>(v) - 0.2f, 0.5f,
                         0.3f - 0.05f * static_cast<float>(v)});
  }
  return g;
}

struct Case {
  std::string name;
  TemporalGraph graph;
  std::vector<TemporalEdge> order;
};

// No edges; one edge; and self-loops, repeated destinations and tied
// timestamps, the ties in a shuffled order.
std::vector<Case> Graphs() {
  std::vector<Case> cases;
  TemporalGraph empty = Nodes(3);
  cases.push_back({"no edges", empty, empty.ChronologicalEdges()});
  TemporalGraph one = Nodes(3);
  one.AddEdge(2, 0, 1.5);
  cases.push_back({"one edge", one, one.ChronologicalEdges()});
  TemporalGraph rich = Nodes(5);
  rich.AddEdge(0, 1, 1.0);
  rich.AddEdge(2, 1, 2.0);
  rich.AddEdge(1, 1, 2.0);  // Self-loop, tied.
  rich.AddEdge(3, 1, 2.0);  // Tied, same destination.
  rich.AddEdge(1, 4, 3.0);
  rich.AddEdge(4, 4, 3.5);  // Self-loop.
  rich.AddEdge(4, 1, 6.0);
  rich.AddEdge(0, 1, 6.0);  // Repeated edge, tied.
  Rng rng(5);
  cases.push_back({"self-loops and ties", rich,
                   rich.ChronologicalEdgesShuffled(rng)});
  return cases;
}

TpGnnConfig SmallConfig() {
  TpGnnConfig config;
  config.feature_dim = 3;
  config.embed_dim = 4;
  config.time_dim = 3;
  config.hidden_dim = 5;
  return config;
}

// --- The SUM fold -----------------------------------------------------------

TEST(FusedSumPropagationTest, MatchesPerOpComposition) {
  for (const Case& c : Graphs()) {
    for (bool stabilize : {true, false}) {
      for (Variant variant : {Variant::kFull, Variant::kTemp}) {
        for (TimeBasis basis : {TimeBasis::kAbsolute, TimeBasis::kInvariant}) {
          for (bool normalize : {true, false}) {
            TpGnnConfig config = SmallConfig();
            config.variant = variant;
            config.stabilize_sum = stabilize;
            config.time_basis = basis;
            config.normalize_time = normalize;
            Rng rng(31);
            TemporalPropagation prop(config, rng);
            const Params p = ByName(prop);
            const std::string tag =
                c.name + (stabilize ? " stabilized" : " raw") +
                (variant == Variant::kFull ? " time2vec" : " no-time") +
                (basis == TimeBasis::kInvariant ? " invariant" : " absolute") +
                (normalize ? " normalized" : " raw-time");
            ExpectMatchesReference(
                [&] { return prop.Forward(c.graph, c.order); },
                [&] {
                  return RefPropagation(config, p, "", c.graph, c.order);
                },
                prop.Parameters(), tag);
          }
        }
      }
    }
  }
}

// --- The extractor's GRU sequence -------------------------------------------

TEST(FusedGruSequenceTest, MatchesPerOpCompositionForEveryEdgeAggAndReadout) {
  const EdgeAgg aggs[] = {EdgeAgg::kAverage,    EdgeAgg::kHadamard,
                          EdgeAgg::kWeightedL1, EdgeAgg::kWeightedL2,
                          EdgeAgg::kActivation, EdgeAgg::kConcatenation};
  for (const Case& c : Graphs()) {
    for (EdgeAgg agg : aggs) {
      for (ExtractorReadout readout :
           {ExtractorReadout::kLastState, ExtractorReadout::kMeanState}) {
        Rng rng(41);
        GlobalTemporalExtractor extractor(4, 5, rng, readout, agg);
        const Params p = ByName(extractor);
        Tensor h = Tensor::Uniform({c.graph.num_nodes(), 4}, -1.0f, 1.0f, rng,
                                   /*requires_grad=*/true);
        std::vector<Tensor> leaves = extractor.Parameters();
        leaves.push_back(h);
        const std::string tag =
            c.name + " agg " + std::to_string(static_cast<int>(agg)) +
            (readout == ExtractorReadout::kLastState ? " last" : " mean");
        ExpectMatchesReference(
            [&] { return extractor.Forward(h, c.order); },
            [&] { return RefExtractor(p, "gru/", agg, readout, h, c.order); },
            leaves, tag);
      }
    }
  }
}

// Both ops write gradients only into inputs that require one, and record no
// node when no input does.
TEST(FusedTrainingOpsTest, GradientsReachOnlyInputsThatRequireThem) {
  Rng rng(43);
  nn::GruCell cell(3, 4, rng);
  Tensor xs = Tensor::Uniform({6, 3}, -1.0f, 1.0f, rng);
  Tensor out = cell.ForwardSequence(xs, nn::SequenceReadout::kMeanState);
  ASSERT_TRUE(out.requires_grad());
  tensor::Sum(out).Backward();
  EXPECT_TRUE(xs.impl()->grad.empty());
  for (const Tensor& param : cell.Parameters()) {
    float norm = 0.0f;
    for (float g : param.grad()) norm += g * g;
    EXPECT_GT(norm, 0.0f);
  }
  for (Tensor param : cell.Parameters()) param.set_requires_grad(false);
  EXPECT_EQ(cell.ForwardSequence(xs, nn::SequenceReadout::kLastState)
                .impl()
                ->grad_fn,
            nullptr);

  TpGnnConfig config = SmallConfig();
  TemporalPropagation prop(config, rng);
  const Case c = Graphs().back();
  for (Tensor param : prop.Parameters()) param.set_requires_grad(false);
  const Tensor h = prop.Forward(c.graph, c.order);
  EXPECT_FALSE(h.requires_grad());
  EXPECT_EQ(h.impl()->grad_fn, nullptr);
}

// --- Variants and a +G baseline, end to end ---------------------------------

Tensor RefModelLogit(const TpGnnConfig& config, const Params& p,
                     const TemporalGraph& graph,
                     const std::vector<TemporalEdge>& order) {
  Tensor h = RefPropagation(config, p, "propagation/", graph, order);
  Tensor g = config.use_global_extractor()
                 ? RefExtractor(p, "extractor/gru/", config.edge_agg,
                                config.extractor_readout, h, order)
                 : graph::MeanPool(h);
  Tensor logit = Affine(Reshape(g, {1, g.numel()}), p.at("classifier/weight"),
                        p.at("classifier/bias"));
  return Reshape(logit, {1});
}

TEST(FusedTrainingTest, VariantsMatchPerOpCompositionEndToEnd) {
  const Case c = Graphs().back();
  for (Variant variant : {Variant::kTemp, Variant::kTime2Vec, Variant::kRand,
                          Variant::kWithoutTem}) {
    TpGnnConfig config = SmallConfig();
    config.variant = variant;
    TpGnnModel model(config, /*seed=*/3);
    const Params p = ByName(model);
    std::vector<TemporalEdge> order = c.order;
    if (config.random_edge_order()) {
      Rng rng(9);
      rng.Shuffle(order);
    }
    ExpectMatchesReference(
        [&] {
          return model.ClassifyEmbedding(model.EmbedFromNodeStates(
              model.propagation().Forward(c.graph, order), order));
        },
        [&] { return RefModelLogit(config, p, c.graph, order); },
        model.Parameters(), config.ModelName());
  }
}

// The +G baselines reach the GRU-sequence op through the extractor.
class GcnWithExtractor : public baselines::Gcn {
 public:
  using Gcn::Gcn;
  using Gcn::NodeEmbeddings;
};

TEST(FusedTrainingTest, GlobalExtractorBaselineMatchesPerOpComposition) {
  baselines::StaticGnnOptions options;
  options.hidden_dim = 4;
  GcnWithExtractor gcn(options, /*seed=*/11, /*global_hidden_dim=*/5);
  ASSERT_EQ(gcn.name(), "GCN+G");
  const Params p = ByName(gcn);
  const Case c = Graphs().back();
  Rng rng(1);
  ExpectMatchesReference(
      [&] { return gcn.ForwardLogit(c.graph, /*training=*/true, rng); },
      [&] {
        Tensor h = gcn.NodeEmbeddings(c.graph, /*training=*/true, rng);
        Tensor g = RefExtractor(p, "global_extractor/gru/",
                                EdgeAgg::kAverage,
                                ExtractorReadout::kMeanState, h,
                                c.graph.ChronologicalEdges());
        Tensor logit = Affine(Reshape(g, {1, g.numel()}),
                              p.at("head/weight"), p.at("head/bias"));
        return Reshape(logit, {1});
      },
      gcn.Parameters(), gcn.name());
}

// --- Tape size --------------------------------------------------------------

uint64_t TapeNodes(TpGnnModel& model, const TemporalGraph& graph) {
  const uint64_t before = util::GetBufferPoolStats().node_acquires;
  Rng rng(2);
  const Tensor logit = model.ForwardLogit(graph, /*training=*/true, rng);
  return util::GetBufferPoolStats().node_acquires - before;
}

// One node per recurrence: the training tape of the default model does not
// grow with the edge count.
TEST(FusedTrainingTest, TapeSizeDoesNotGrowWithEdges) {
  TpGnnModel model(TpGnnConfig(), /*seed=*/4);
  TemporalGraph small = Nodes(6);
  TemporalGraph large = Nodes(6);
  for (int64_t i = 0; i < 60; ++i) {
    const int64_t u = i % 6;
    const int64_t v = (i * 5 + 1) % 6;
    if (i < 3) small.AddEdge(u, v, static_cast<double>(i));
    large.AddEdge(u, v, static_cast<double>(i));
  }
  const uint64_t nodes = TapeNodes(model, small);
  EXPECT_EQ(TapeNodes(model, large), nodes);
  EXPECT_LE(nodes, 12u);
}

}  // namespace
}  // namespace tpgnn::core
