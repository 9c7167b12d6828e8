#include "core/temporal_propagation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "testing/all_close.h"
#include "testing/gradcheck.h"
#include "util/buffer_pool.h"

// Every heap allocation in this binary goes through the counting operator
// new below, so a test can assert that a stretch of code allocates nothing.
// new and delete are replaced as a family over malloc/free, which keeps
// sanitizer allocators consistent. GCC's mismatched-new-delete check sees
// the replacement delete inlined after a new and flags the free().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace tpgnn::core {
namespace {

using graph::TemporalGraph;
using tensor::Shape;
using tensor::Tensor;

TpGnnConfig SmallConfig(Updater updater) {
  TpGnnConfig config;
  config.updater = updater;
  config.feature_dim = 3;
  config.embed_dim = 8;
  config.time_dim = 4;
  config.hidden_dim = 8;
  return config;
}

TemporalGraph Fig1StyleGraph() {
  TemporalGraph g(4, 3);
  for (int64_t v = 0; v < 4; ++v) {
    g.SetNodeFeature(v, {static_cast<float>(v) * 0.1f, 0.5f, 0.0f});
  }
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  return g;
}

TEST(TemporalPropagationTest, SumOutputShapeIncludesTimeBlock) {
  Rng rng(1);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  TemporalPropagation prop(config, rng);
  EXPECT_EQ(prop.output_dim(), 12);
  TemporalGraph g = Fig1StyleGraph();
  Tensor h = prop.Forward(g, g.ChronologicalEdges());
  EXPECT_EQ(h.shape(), (Shape{4, 12}));
}

TEST(TemporalPropagationTest, GruOutputShape) {
  Rng rng(2);
  TpGnnConfig config = SmallConfig(Updater::kGru);
  TemporalPropagation prop(config, rng);
  EXPECT_EQ(prop.output_dim(), 8);
  TemporalGraph g = Fig1StyleGraph();
  Tensor h = prop.Forward(g, g.ChronologicalEdges());
  EXPECT_EQ(h.shape(), (Shape{4, 8}));
}

TEST(TemporalPropagationTest, TempVariantHasNoTimeBlock) {
  Rng rng(3);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  config.variant = Variant::kTemp;
  TemporalPropagation prop(config, rng);
  EXPECT_EQ(prop.output_dim(), 8);
}

TEST(TemporalPropagationTest, WithoutTemSkipsPropagation) {
  Rng rng(4);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  config.variant = Variant::kWithoutTem;
  TemporalPropagation prop(config, rng);
  TemporalGraph g = Fig1StyleGraph();
  Tensor h = prop.Forward(g, g.ChronologicalEdges());
  // No propagation: isolated node embedding equals the edge-connected ones'
  // function of raw features only — H must not depend on the edges.
  TemporalGraph no_edges(4, 3);
  for (int64_t v = 0; v < 4; ++v) {
    no_edges.SetNodeFeature(v, g.node_feature(v));
  }
  Tensor h2 = prop.Forward(no_edges, no_edges.ChronologicalEdges());
  EXPECT_TRUE(tensor::AllClose(h, h2, 1e-7f, 1e-7f));
}

TEST(TemporalPropagationTest, OutputBoundedByTanh) {
  Rng rng(5);
  TemporalPropagation prop(SmallConfig(Updater::kSum), rng);
  TemporalGraph g = Fig1StyleGraph();
  Tensor h = prop.Forward(g, g.ChronologicalEdges());
  for (float v : h.data()) {
    EXPECT_LE(std::abs(v), 1.0f);
  }
}

TEST(TemporalPropagationTest, EdgeOrderMattersWithIdenticalTopology) {
  // The Fig. 1 motivation: same edges, different timestamps -> different H.
  Rng rng(6);
  for (Updater updater : {Updater::kSum, Updater::kGru}) {
    TemporalPropagation prop(SmallConfig(updater), rng);
    TemporalGraph g1(3, 3);
    g1.SetNodeFeature(0, {0.1f, 0.2f, 0.3f});
    g1.SetNodeFeature(1, {0.4f, 0.5f, 0.6f});
    g1.SetNodeFeature(2, {0.7f, 0.8f, 0.9f});
    g1.AddEdge(0, 1, 1.0);
    g1.AddEdge(1, 2, 2.0);
    TemporalGraph g2 = g1;
    g2.mutable_edges()[0].time = 2.0;
    g2.mutable_edges()[1].time = 1.0;
    Tensor h1 = prop.Forward(g1, g1.ChronologicalEdges());
    Tensor h2 = prop.Forward(g2, g2.ChronologicalEdges());
    EXPECT_FALSE(tensor::AllClose(h1, h2, 1e-6f, 1e-6f))
        << "updater " << static_cast<int>(updater);
  }
}

TEST(TemporalPropagationTest, RepeatedEdgeRefreshesTarget) {
  // After 8 -> 7 fires, a second 7 -> 6 edge must change 6's embedding
  // (long temporal dependency, Sec. I limitation 2).
  Rng rng(7);
  TemporalPropagation prop(SmallConfig(Updater::kGru), rng);
  TemporalGraph base(4, 3);
  base.AddEdge(1, 0, 1.0);  // 7->6 analogue.
  base.AddEdge(2, 1, 2.0);  // 8->7.
  TemporalGraph with_refresh = base;
  with_refresh.AddEdge(1, 0, 3.0);  // Second 7->6 after 8's info arrived.
  Tensor h1 = prop.Forward(base, base.ChronologicalEdges());
  Tensor h2 =
      prop.Forward(with_refresh, with_refresh.ChronologicalEdges());
  // Node 0's row must differ.
  Tensor row1 = tensor::Row(h1, 0);
  Tensor row2 = tensor::Row(h2, 0);
  EXPECT_FALSE(tensor::AllClose(row1, row2, 1e-6f, 1e-6f));
}

TEST(TemporalPropagationTest, GradFlowsToEmbeddingAndTimeParams) {
  Rng rng(8);
  TemporalPropagation prop(SmallConfig(Updater::kSum), rng);
  TemporalGraph g = Fig1StyleGraph();
  Tensor h = prop.Forward(g, g.ChronologicalEdges());
  tensor::Sum(tensor::Mul(h, h)).Backward();
  for (const auto& [name, p] : prop.NamedParameters()) {
    float grad_norm = 0.0f;
    for (float gv : p.grad()) grad_norm += gv * gv;
    EXPECT_GT(grad_norm, 0.0f) << "no gradient reached " << name;
  }
}

TEST(TemporalPropagationTest, GradCheckSumUpdater) {
  Rng rng(9);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  config.embed_dim = 4;
  config.time_dim = 2;
  TemporalPropagation prop(config, rng);
  TemporalGraph g = Fig1StyleGraph();
  auto r = tpgnn::testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor h = prop.Forward(g, g.ChronologicalEdges());
        return tensor::Sum(tensor::Mul(h, h));
      },
      prop.Parameters());
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(TemporalPropagationTest, GradCheckGruUpdater) {
  Rng rng(10);
  TpGnnConfig config = SmallConfig(Updater::kGru);
  config.embed_dim = 4;
  config.time_dim = 2;
  TemporalPropagation prop(config, rng);
  TemporalGraph g = Fig1StyleGraph();
  auto r = tpgnn::testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor h = prop.Forward(g, g.ChronologicalEdges());
        return tensor::Sum(tensor::Mul(h, h));
      },
      prop.Parameters(), /*eps=*/1e-2f, /*tol=*/3e-2f);
  EXPECT_TRUE(r.ok) << r.message;
}

// --- Invariant time basis (DESIGN.md §4.3) --------------------------------

TEST(InvariantBasisTest, PredicatesAndAccumulatorWidth) {
  Rng rng(20);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  config.time_basis = TimeBasis::kInvariant;
  TemporalPropagation prop(config, rng);
  // Output width is unchanged: the widened accumulator collapses back to
  // time_dim at FinalizeState.
  EXPECT_EQ(prop.output_dim(), 12);
  EXPECT_EQ(prop.time_state_dim(), 2 * config.time_dim);
  EXPECT_FALSE(prop.AccumulatorDependsOnMaxTime());
  EXPECT_FALSE(prop.StateDependsOnMaxTime());

  TpGnnConfig absolute = SmallConfig(Updater::kSum);
  TemporalPropagation abs_prop(absolute, rng);
  EXPECT_EQ(abs_prop.time_state_dim(), config.time_dim);
  EXPECT_TRUE(abs_prop.AccumulatorDependsOnMaxTime());

  TpGnnConfig gru = SmallConfig(Updater::kGru);
  TemporalPropagation gru_prop(gru, rng);
  EXPECT_TRUE(gru_prop.StateDependsOnMaxTime());
  gru.time_basis = TimeBasis::kInvariant;
  TemporalPropagation gru_inv(gru, rng);
  EXPECT_FALSE(gru_inv.StateDependsOnMaxTime());
}

// The recorded (autograd) forward and the zero-copy inference forward must
// agree bitwise in the invariant basis, exactly as they do in the absolute
// basis — the deferred correction is mirrored expression by expression.
TEST(InvariantBasisTest, RecordedAndInferenceForwardsBitIdentical) {
  for (Updater updater : {Updater::kSum, Updater::kGru}) {
    for (bool normalize : {true, false}) {
      Rng rng(21);
      TpGnnConfig config = SmallConfig(updater);
      config.time_basis = TimeBasis::kInvariant;
      config.normalize_time = normalize;
      TemporalPropagation prop(config, rng);
      TemporalGraph g = Fig1StyleGraph();
      g.AddEdge(3, 0, 3.0);  // Duplicate timestamp.
      g.AddEdge(0, 2, 7.0);
      Tensor recorded = prop.Forward(g, g.ChronologicalEdges());
      // The inference path is bit-identical to the recorded forward in
      // scalar SIMD mode and in the active one (tensor/kernels.h: every
      // kernel entry is bitwise across tables).
      Tensor inference;
      {
        tensor::ScopedSimdMode scalar_mode(tensor::SimdMode::kScalar);
        tensor::NoGradGuard no_grad;
        inference = prop.Forward(g, g.ChronologicalEdges());
      }
      ASSERT_EQ(recorded.shape(), inference.shape());
      for (size_t i = 0; i < recorded.data().size(); ++i) {
        EXPECT_EQ(recorded.data()[i], inference.data()[i])
            << "updater " << static_cast<int>(updater) << " normalize "
            << normalize << " element " << i;
      }
      Tensor active;
      {
        tensor::NoGradGuard no_grad;
        active = prop.Forward(g, g.ChronologicalEdges());
      }
      ASSERT_EQ(recorded.shape(), active.shape());
      EXPECT_EQ(std::memcmp(recorded.data().data(), active.data().data(),
                            recorded.data().size() * sizeof(float)),
                0)
          << "updater " << static_cast<int>(updater) << " normalize "
          << normalize;
    }
  }
}

// The two bases are different models: same parameters, different H.
TEST(InvariantBasisTest, BasesDisagreeButBothReactToTime) {
  Rng rng(22);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  TemporalPropagation absolute(config, rng);
  Rng rng2(22);
  config.time_basis = TimeBasis::kInvariant;
  TemporalPropagation invariant(config, rng2);
  TemporalGraph g = Fig1StyleGraph();
  Tensor ha = absolute.Forward(g, g.ChronologicalEdges());
  Tensor hi = invariant.Forward(g, g.ChronologicalEdges());
  EXPECT_FALSE(tensor::AllClose(ha, hi, 1e-6f, 1e-6f));
  // And the invariant basis still distinguishes timestamp patterns.
  TemporalGraph g2 = g;
  g2.mutable_edges()[0].time = 2.5;
  Tensor hi2 = invariant.Forward(g2, g2.ChronologicalEdges());
  EXPECT_FALSE(tensor::AllClose(hi, hi2, 1e-6f, 1e-6f));
}

TEST(InvariantBasisTest, GradFlowsToAllParams) {
  for (Updater updater : {Updater::kSum, Updater::kGru}) {
    Rng rng(23);
    TpGnnConfig config = SmallConfig(updater);
    config.time_basis = TimeBasis::kInvariant;
    TemporalPropagation prop(config, rng);
    TemporalGraph g = Fig1StyleGraph();
    Tensor h = prop.Forward(g, g.ChronologicalEdges());
    tensor::Sum(tensor::Mul(h, h)).Backward();
    for (const auto& [name, p] : prop.NamedParameters()) {
      float grad_norm = 0.0f;
      for (float gv : p.grad()) grad_norm += gv * gv;
      EXPECT_GT(grad_norm, 0.0f)
          << "no gradient reached " << name << " (updater "
          << static_cast<int>(updater) << ")";
    }
  }
}

TEST(InvariantBasisTest, GradCheckSumUpdater) {
  Rng rng(24);
  TpGnnConfig config = SmallConfig(Updater::kSum);
  config.embed_dim = 4;
  config.time_dim = 2;
  config.time_basis = TimeBasis::kInvariant;
  TemporalPropagation prop(config, rng);
  TemporalGraph g = Fig1StyleGraph();
  auto r = tpgnn::testing::GradCheck(
      [&](const std::vector<Tensor>&) {
        Tensor h = prop.Forward(g, g.ChronologicalEdges());
        return tensor::Sum(tensor::Mul(h, h));
      },
      prop.Parameters());
  EXPECT_TRUE(r.ok) << r.message;
}

// Folding 10k edges through one PropagationScratch allocates nothing: the
// counting operator new above sees no heap allocation and the buffer pool no
// acquire (buffer_allocs_per_edge == 0), for both updaters in both time
// bases, from the first edge on.
TEST(PlannedFoldTest, TenThousandEdgesFoldAllocationFree) {
  for (Updater updater : {Updater::kSum, Updater::kGru}) {
    for (TimeBasis basis : {TimeBasis::kAbsolute, TimeBasis::kInvariant}) {
      const std::string tag =
          std::string(updater == Updater::kSum ? "sum" : "gru") +
          (basis == TimeBasis::kAbsolute ? " absolute" : " invariant");
      Rng rng(31);
      TpGnnConfig config = SmallConfig(updater);
      config.time_basis = basis;
      TemporalPropagation prop(config, rng);

      TemporalGraph g(6, 3);
      for (int64_t v = 0; v < 6; ++v) {
        g.SetNodeFeature(v, {0.1f * static_cast<float>(v), 0.5f, 0.0f});
      }
      for (int i = 0; i < 10000; ++i) {
        g.AddEdge(i % 6, (i + 1) % 6, 1.0 + 0.5 * i);
      }

      tensor::NoGradGuard no_grad;
      Tensor x = prop.EmbedInitial(g);
      Tensor m;
      if (prop.has_time_accumulator()) {
        m = Tensor::Zeros({6, prop.time_state_dim()});
      }
      PropagationScratch scratch(config);
      const std::vector<graph::TemporalEdge> edges = g.ChronologicalEdges();
      const double max_time = g.MaxTime();
      double prev_time = 0.0;
      const util::BufferPoolStats before = util::GetBufferPoolStats();
      const uint64_t allocations_before =
          g_heap_allocations.load(std::memory_order_relaxed);
      for (const graph::TemporalEdge& e : edges) {
        prop.PropagateEdgeState(x, e, max_time, prev_time, scratch);
        if (prop.has_time_accumulator()) {
          prop.AccumulateEdgeTime(m, e, max_time, scratch);
        }
        prev_time = e.time;
      }
      const uint64_t allocations =
          g_heap_allocations.load(std::memory_order_relaxed) -
          allocations_before;
      const util::BufferPoolStats after = util::GetBufferPoolStats();
      EXPECT_EQ(allocations, 0u) << tag;
      EXPECT_EQ(after.acquires, before.acquires) << tag;
      EXPECT_EQ(after.node_acquires, before.node_acquires) << tag;
    }
  }
}

TEST(NormalizeTimeTest, ScalesToConfiguredRange) {
  TpGnnConfig config;
  config.normalize_time = true;
  config.time_scale = 10.0;
  EXPECT_DOUBLE_EQ(NormalizeTime(config, 50.0, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(NormalizeTime(config, 100.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(NormalizeTime(config, 5.0, 0.0), 5.0);  // Degenerate.
  config.normalize_time = false;
  EXPECT_DOUBLE_EQ(NormalizeTime(config, 50.0, 100.0), 50.0);
}

}  // namespace
}  // namespace tpgnn::core
