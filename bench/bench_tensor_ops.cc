// Hot-kernel microbenchmarks: square MatMul (forward and forward+backward)
// at the sizes the models actually hit, one full GRU cell step, and the
// per-edge propagation op mix that dominates TP-GNN training ([1, 64] rows
// gathered from a [27, 64] node-state matrix; 27 nodes / 64 dims are the
// paper-default graph shape). Run directly or via `cmake --build build
// --target bench`; not registered with ctest.
//
// ns/op is reported by the google-benchmark runner; allocs/op counters come
// from the buffer-pool stats facade (util/buffer_pool.h). Before the
// google-benchmark suites run, main() times the per-edge mix and two tiny
// fig6-style TP-GNN cells with the pool disabled vs enabled and writes the
// machine-readable record to BENCH_alloc.json (TPGNN_BENCH_ALLOC_JSON), then
// times the planned arena executor against the hand-fused scalar inference
// loops it replaced and writes BENCH_plan.json (TPGNN_BENCH_PLAN_JSON).
//
// The MatMul fast-path acceptance bar for this repo is >= 2x the seed
// kernel at 128x128x128; the pooled per-edge mix bar is >= 2x the unpooled
// mix with steady-state allocs/op ~ 0.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/datasets.h"
#include "eval/trainer.h"
#include "nn/gru_cell.h"
#include "nn/time_encoding.h"
#include "tensor/executor.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/plan.h"
#include "tensor/tensor.h"
#include "util/buffer_pool.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using tpgnn::Rng;
using tpgnn::tensor::Tensor;

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    bool requires_grad = false) {
  Rng rng(seed);
  return Tensor::Uniform({rows, cols}, -1.0f, 1.0f, rng, requires_grad);
}

void BM_MatMulForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  tpgnn::tensor::NoGradGuard no_grad;
  Tensor a = RandomMatrix(n, n, 1);
  Tensor b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    Tensor c = tpgnn::tensor::MatMul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomMatrix(n, n, 1, /*requires_grad=*/true);
  Tensor b = RandomMatrix(n, n, 2, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = tpgnn::tensor::Sum(tpgnn::tensor::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.MutableGrad().data());
    a.ZeroGrad();
    b.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * 3 * n * n * n);
}
BENCHMARK(BM_MatMulForwardBackward)->Arg(32)->Arg(64)->Arg(128);

void BM_GruCellStep(benchmark::State& state) {
  const int64_t hidden = state.range(0);
  Rng rng(3);
  tpgnn::nn::GruCell cell(hidden, hidden, rng);
  tpgnn::tensor::NoGradGuard no_grad;
  Tensor x = RandomMatrix(1, hidden, 4);
  Tensor h = RandomMatrix(1, hidden, 5);
  for (auto _ : state) {
    Tensor next = cell.Forward(x, h);
    benchmark::DoNotOptimize(next.data().data());
  }
}
BENCHMARK(BM_GruCellStep)->Arg(32)->Arg(64);

void BM_SigmoidForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomMatrix(n, n, 6, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = tpgnn::tensor::Sum(tpgnn::tensor::Sigmoid(a));
    loss.Backward();
    benchmark::DoNotOptimize(a.MutableGrad().data());
    a.ZeroGrad();
  }
}
BENCHMARK(BM_SigmoidForwardBackward)->Arg(128);

void BM_TanhForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomMatrix(n, n, 7, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = tpgnn::tensor::Sum(tpgnn::tensor::Tanh(a));
    loss.Backward();
    benchmark::DoNotOptimize(a.MutableGrad().data());
    a.ZeroGrad();
  }
}
BENCHMARK(BM_TanhForwardBackward)->Arg(128);

// --- Per-edge propagation op mix ------------------------------------------

// Paper-default shapes: HDFS graphs average ~27 nodes, embeddings are 64
// floats after the time encoding is concatenated.
constexpr int64_t kNodes = 27;
constexpr int64_t kDim = 64;

class ScopedPoolEnabled {
 public:
  explicit ScopedPoolEnabled(bool enabled)
      : previous_(tpgnn::util::BufferPoolEnabled()) {
    tpgnn::util::SetBufferPoolEnabled(enabled);
  }
  ~ScopedPoolEnabled() { tpgnn::util::SetBufferPoolEnabled(previous_); }

 private:
  bool previous_;
};

// Fresh heap allocations (buffers + tape nodes) recorded by the pool facade.
uint64_t FreshAllocs(const tpgnn::util::BufferPoolStats& s) {
  return s.pool_misses + (s.node_acquires - s.node_reuses);
}

// One recorded training sweep over the node-state matrix: per edge, gather
// the endpoint rows, aggregate them into an edge embedding, step the GRU,
// and close the tape with a scalar loss + Backward. This is the op mix
// TemporalPropagation + GlobalTemporalExtractor issue per graph.
void PerEdgeTrainSweep(tpgnn::nn::GruCell& gru, const Tensor& state) {
  namespace ops = tpgnn::tensor;
  Tensor h = ops::GatherRows(state, {0});
  for (int64_t e = 0; e < kNodes; ++e) {
    Tensor src = ops::GatherRows(state, {e});
    Tensor dst = ops::GatherRows(state, {(e * 7 + 3) % kNodes});
    Tensor edge = ops::Scale(ops::Add(src, dst), 0.5f);  // Average EdgeAgg.
    h = gru.Forward(edge, h);
  }
  ops::Sum(h).Backward();
}

void BM_PerEdgeTrainMix(benchmark::State& state) {
  ScopedPoolEnabled pool(state.range(0) != 0);
  Rng rng(11);
  tpgnn::nn::GruCell gru(kDim, kDim, rng);
  Tensor node_state = RandomMatrix(kNodes, kDim, 12, /*requires_grad=*/true);
  PerEdgeTrainSweep(gru, node_state);  // Warm the pool and freelists.

  const auto before = tpgnn::util::GetBufferPoolStats();
  for (auto _ : state) {
    PerEdgeTrainSweep(gru, node_state);
  }
  const auto after = tpgnn::util::GetBufferPoolStats();
  const double edges =
      static_cast<double>(state.iterations()) * static_cast<double>(kNodes);
  state.counters["allocs/edge"] = static_cast<double>(
      FreshAllocs(after) - FreshAllocs(before)) / edges;
  state.SetItemsProcessed(state.iterations() * kNodes);
}
BENCHMARK(BM_PerEdgeTrainMix)->Arg(0)->Arg(1);

void BM_GruRowStepInference(benchmark::State& state) {
  // The zero-copy inference step: StepInto over a [1, 64] row view; no
  // tensors or tape nodes exist per edge, so allocs/op must be ~0.
  tpgnn::tensor::NoGradGuard no_grad;
  Rng rng(15);
  tpgnn::nn::GruCell gru(kDim, kDim, rng);
  Tensor node_state = RandomMatrix(kNodes, kDim, 16);
  std::vector<float> message(static_cast<size_t>(kDim));
  tpgnn::nn::GruScratch scratch;
  int64_t e = 0;
  const auto before = tpgnn::util::GetBufferPoolStats();
  for (auto _ : state) {
    tpgnn::tensor::ConstRowSpan src =
        tpgnn::tensor::RowSpanOf(node_state, e % kNodes);
    std::copy(src.data, src.data + kDim, message.begin());
    tpgnn::tensor::RowSpan dst =
        tpgnn::tensor::MutableRowSpan(node_state, (e * 7 + 3) % kNodes);
    gru.StepInto(message.data(), dst.data, dst.data, scratch);
    benchmark::DoNotOptimize(dst.data);
    ++e;
  }
  const auto after = tpgnn::util::GetBufferPoolStats();
  state.counters["allocs/op"] = static_cast<double>(
      FreshAllocs(after) - FreshAllocs(before)) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_GruRowStepInference);

// --- Seed-style per-edge sweeps --------------------------------------------
// The op sequence the repo issued per edge before the memory subsystem:
// per-edge Row extraction, the unfused 21-node GRU chain (with a fresh Ones
// tensor per step), and no buffer pooling. Kept here as the "before" side of
// the BENCH_alloc.json comparison.

struct SeedGruParams {
  Tensor wz, uz, bz, wr, ur, br, wn, un, bn;
};

SeedGruParams MakeSeedGruParams(uint64_t seed) {
  Rng rng(seed);
  auto mat = [&rng](int64_t r, int64_t c) {
    return Tensor::Uniform({r, c}, -0.125f, 0.125f, rng,
                           /*requires_grad=*/true);
  };
  auto vec = [&rng](int64_t n) {
    return Tensor::Uniform({n}, -0.125f, 0.125f, rng, /*requires_grad=*/true);
  };
  return SeedGruParams{mat(kDim, kDim), mat(kDim, kDim), vec(kDim),
                       mat(kDim, kDim), mat(kDim, kDim), vec(kDim),
                       mat(kDim, kDim), mat(kDim, kDim), vec(kDim)};
}

Tensor SeedGruStep(const SeedGruParams& p, const Tensor& x, const Tensor& h) {
  namespace ops = tpgnn::tensor;
  Tensor z = ops::Sigmoid(
      ops::Add(ops::Add(ops::MatMul(x, p.wz), ops::MatMul(h, p.uz)), p.bz));
  Tensor r = ops::Sigmoid(
      ops::Add(ops::Add(ops::MatMul(x, p.wr), ops::MatMul(h, p.ur)), p.br));
  Tensor n = ops::Tanh(ops::Add(
      ops::Add(ops::MatMul(x, p.wn), ops::Mul(r, ops::MatMul(h, p.un))),
      p.bn));
  Tensor keep = ops::Mul(z, h);
  Tensor ones = Tensor::Ones({1, kDim});
  Tensor update = ops::Mul(ops::Sub(ones, z), n);
  return ops::Add(keep, update);
}

Tensor SeedStyleForward(const SeedGruParams& p, const Tensor& state) {
  namespace ops = tpgnn::tensor;
  Tensor h = ops::Reshape(ops::Row(state, 0), {1, kDim});
  for (int64_t e = 0; e < kNodes; ++e) {
    Tensor src = ops::Row(state, e);
    Tensor dst = ops::Row(state, (e * 7 + 3) % kNodes);
    Tensor edge =
        ops::Reshape(ops::Scale(ops::Add(src, dst), 0.5f), {1, kDim});
    h = SeedGruStep(p, edge, h);
  }
  return h;
}

void SeedStyleTrainSweep(const SeedGruParams& p, const Tensor& state) {
  tpgnn::tensor::Sum(SeedStyleForward(p, state)).Backward();
}

// The current zero-copy inference sweep over the same logical computation:
// the edge row is staged in one scratch buffer and the chain state lives in
// a single flat buffer mutated by GruCell::StepInto.
void ZeroCopyInferenceSweep(const tpgnn::nn::GruCell& gru,
                            const Tensor& state, std::vector<float>& h,
                            std::vector<float>& message,
                            tpgnn::nn::GruScratch& scratch) {
  namespace ops = tpgnn::tensor;
  ops::ConstRowSpan first = ops::RowSpanOf(state, 0);
  std::copy(first.data, first.data + kDim, h.begin());
  for (int64_t e = 0; e < kNodes; ++e) {
    ops::ConstRowSpan src = ops::RowSpanOf(state, e);
    ops::ConstRowSpan dst = ops::RowSpanOf(state, (e * 7 + 3) % kNodes);
    for (int64_t i = 0; i < kDim; ++i) {
      message[static_cast<size_t>(i)] = (src.data[i] + dst.data[i]) * 0.5f;
    }
    gru.StepInto(message.data(), h.data(), h.data(), scratch);
  }
}

// --- SUM-updater per-edge mix ----------------------------------------------
// TP-GNN-SUM (the paper's headline variant) issues no GEMMs per edge: each
// edge is two Add+Tanh chains over a [64] feature row and a [6] time row
// plus one Time2Vec evaluation. This mix is pure allocator pressure, which
// is exactly what the memory subsystem targets.

constexpr int64_t kTimeDim = 6;

Tensor SumTrainForward(const tpgnn::nn::Time2Vec& t2v, const Tensor& x,
                       bool fused_assembly) {
  namespace ops = tpgnn::tensor;
  std::vector<Tensor> xhat(static_cast<size_t>(kNodes));
  std::vector<Tensor> mhat(static_cast<size_t>(kNodes));
  for (int64_t v = 0; v < kNodes; ++v) {
    xhat[static_cast<size_t>(v)] = ops::Row(x, v);
    mhat[static_cast<size_t>(v)] = Tensor::Zeros({kTimeDim});
  }
  for (int64_t e = 0; e < kNodes; ++e) {
    const size_t u = static_cast<size_t>(e);
    const size_t v = static_cast<size_t>((e * 7 + 3) % kNodes);
    xhat[v] = ops::Tanh(ops::Add(xhat[u], xhat[v]));
    Tensor ft = t2v.Forward(static_cast<float>(e) * 0.01f);
    mhat[v] = ops::Tanh(ops::Add(ft, mhat[v]));
  }
  if (fused_assembly) {
    // Current assembly: two fused stacks + one axis-1 concat, O(1) ops.
    return ops::Tanh(ops::Concat({ops::Stack(xhat), ops::Stack(mhat)}, 1));
  }
  // Seed assembly: one Concat per node, O(n) recorded ops.
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(kNodes));
  for (int64_t v = 0; v < kNodes; ++v) {
    rows.push_back(ops::Concat(
        {xhat[static_cast<size_t>(v)], mhat[static_cast<size_t>(v)]}, 0));
  }
  return ops::Tanh(ops::Stack(rows));
}

// The current zero-copy SUM inference sweep: in-place row updates through
// spans plus Time2Vec::EvalInto; no tensors exist per edge (mirrors
// TemporalPropagation::ForwardInference).
void SumZeroCopySweep(const tpgnn::nn::Time2Vec& t2v, std::vector<float>& x,
                      std::vector<float>& m, std::vector<float>& ft) {
  for (int64_t e = 0; e < kNodes; ++e) {
    const float* src = x.data() + e * kDim;
    float* dst = x.data() + ((e * 7 + 3) % kNodes) * kDim;
    for (int64_t i = 0; i < kDim; ++i) {
      dst[i] = std::tanh(src[i] + dst[i]);
    }
    t2v.EvalInto(static_cast<float>(e) * 0.01f, ft.data());
    float* mrow = m.data() + ((e * 7 + 3) % kNodes) * kTimeDim;
    for (int64_t i = 0; i < kTimeDim; ++i) {
      mrow[i] = std::tanh(ft[static_cast<size_t>(i)] + mrow[i]);
    }
  }
  for (float& v : x) v = std::tanh(v);
  for (float& v : m) v = std::tanh(v);
}

// --- BENCH_alloc.json ------------------------------------------------------

struct MixMeasurement {
  double ns_per_edge = 0.0;
  double buffer_allocs_per_edge = 0.0;
  double node_allocs_per_edge = 0.0;
};

MixMeasurement MeasurePerEdgeMix(bool pool_enabled, int rounds) {
  ScopedPoolEnabled pool(pool_enabled);
  Rng rng(11);
  tpgnn::nn::GruCell gru(kDim, kDim, rng);
  Tensor node_state = RandomMatrix(kNodes, kDim, 12, /*requires_grad=*/true);
  PerEdgeTrainSweep(gru, node_state);  // Warm-up.

  const auto before = tpgnn::util::GetBufferPoolStats();
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    PerEdgeTrainSweep(gru, node_state);
  }
  const double seconds = watch.ElapsedSeconds();
  const auto after = tpgnn::util::GetBufferPoolStats();

  const double edges = static_cast<double>(rounds) * kNodes;
  MixMeasurement m;
  m.ns_per_edge = seconds * 1e9 / edges;
  m.buffer_allocs_per_edge =
      static_cast<double>(after.pool_misses - before.pool_misses) / edges;
  m.node_allocs_per_edge = static_cast<double>(
      (after.node_acquires - after.node_reuses) -
      (before.node_acquires - before.node_reuses)) / edges;
  return m;
}

// Seed-style training sweep (unfused ops, no pooling): the "before" side.
MixMeasurement MeasureSeedTrainMix(int rounds) {
  ScopedPoolEnabled pool(false);
  SeedGruParams params = MakeSeedGruParams(11);
  Tensor node_state = RandomMatrix(kNodes, kDim, 12, /*requires_grad=*/true);
  SeedStyleTrainSweep(params, node_state);  // Warm-up.

  const auto before = tpgnn::util::GetBufferPoolStats();
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    SeedStyleTrainSweep(params, node_state);
  }
  const double seconds = watch.ElapsedSeconds();
  const auto after = tpgnn::util::GetBufferPoolStats();

  const double edges = static_cast<double>(rounds) * kNodes;
  MixMeasurement m;
  m.ns_per_edge = seconds * 1e9 / edges;
  m.buffer_allocs_per_edge =
      static_cast<double>(after.pool_misses - before.pool_misses) / edges;
  m.node_allocs_per_edge = static_cast<double>(
      (after.node_acquires - after.node_reuses) -
      (before.node_acquires - before.node_reuses)) / edges;
  return m;
}

// Inference-side comparison: the seed evaluated graphs by running the same
// recorded-op chain under NoGradGuard; the current path walks row views.
double MeasureSeedInferenceMix(int rounds) {
  ScopedPoolEnabled pool(false);
  tpgnn::tensor::NoGradGuard no_grad;
  SeedGruParams params = MakeSeedGruParams(11);
  Tensor node_state = RandomMatrix(kNodes, kDim, 12);
  SeedStyleForward(params, node_state);  // Warm-up.
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    benchmark::DoNotOptimize(SeedStyleForward(params, node_state).data());
  }
  return watch.ElapsedSeconds() * 1e9 /
         (static_cast<double>(rounds) * kNodes);
}

double MeasureZeroCopyInferenceMix(int rounds) {
  ScopedPoolEnabled pool(true);
  tpgnn::tensor::NoGradGuard no_grad;
  Rng rng(11);
  tpgnn::nn::GruCell gru(kDim, kDim, rng);
  Tensor node_state = RandomMatrix(kNodes, kDim, 12);
  std::vector<float> h(static_cast<size_t>(kDim));
  std::vector<float> message(static_cast<size_t>(kDim));
  tpgnn::nn::GruScratch scratch;
  ZeroCopyInferenceSweep(gru, node_state, h, message, scratch);  // Warm-up.
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    ZeroCopyInferenceSweep(gru, node_state, h, message, scratch);
    benchmark::DoNotOptimize(h.data());
  }
  return watch.ElapsedSeconds() * 1e9 /
         (static_cast<double>(rounds) * kNodes);
}

MixMeasurement MeasureSumTrainMix(bool pool_enabled, bool fused_assembly,
                                  int rounds) {
  ScopedPoolEnabled pool(pool_enabled);
  Rng rng(11);
  tpgnn::nn::Time2Vec t2v(kTimeDim, rng);
  Tensor x = RandomMatrix(kNodes, kDim, 12, /*requires_grad=*/true);
  tpgnn::tensor::Sum(SumTrainForward(t2v, x, fused_assembly)).Backward();

  const auto before = tpgnn::util::GetBufferPoolStats();
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    tpgnn::tensor::Sum(SumTrainForward(t2v, x, fused_assembly)).Backward();
  }
  const double seconds = watch.ElapsedSeconds();
  const auto after = tpgnn::util::GetBufferPoolStats();

  const double edges = static_cast<double>(rounds) * kNodes;
  MixMeasurement m;
  m.ns_per_edge = seconds * 1e9 / edges;
  m.buffer_allocs_per_edge =
      static_cast<double>(after.pool_misses - before.pool_misses) / edges;
  m.node_allocs_per_edge = static_cast<double>(
      (after.node_acquires - after.node_reuses) -
      (before.node_acquires - before.node_reuses)) / edges;
  return m;
}

double MeasureSumSeedInferenceMix(int rounds) {
  ScopedPoolEnabled pool(false);
  tpgnn::tensor::NoGradGuard no_grad;
  Rng rng(11);
  tpgnn::nn::Time2Vec t2v(kTimeDim, rng);
  Tensor x = RandomMatrix(kNodes, kDim, 12);
  SumTrainForward(t2v, x, /*fused_assembly=*/false);  // Warm-up.
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    benchmark::DoNotOptimize(
        SumTrainForward(t2v, x, /*fused_assembly=*/false).data());
  }
  return watch.ElapsedSeconds() * 1e9 /
         (static_cast<double>(rounds) * kNodes);
}

double MeasureSumZeroCopyInferenceMix(int rounds) {
  Rng rng(11);
  tpgnn::nn::Time2Vec t2v(kTimeDim, rng);
  std::vector<float> x(static_cast<size_t>(kNodes * kDim), 0.25f);
  std::vector<float> m(static_cast<size_t>(kNodes * kTimeDim), 0.0f);
  std::vector<float> ft(static_cast<size_t>(kTimeDim));
  SumZeroCopySweep(t2v, x, m, ft);  // Warm-up.
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    SumZeroCopySweep(t2v, x, m, ft);
    benchmark::DoNotOptimize(x.data());
  }
  return watch.ElapsedSeconds() * 1e9 /
         (static_cast<double>(rounds) * kNodes);
}

std::string MixJson(const char* bench_name, const char* variant,
                    const MixMeasurement& m) {
  std::ostringstream line;
  line << "{\"bench\": \"" << bench_name << "\", \"variant\": \""
       << variant << "\", \"ns_per_edge\": " << m.ns_per_edge
       << ", \"buffer_allocs_per_edge\": " << m.buffer_allocs_per_edge
       << ", \"node_allocs_per_edge\": " << m.node_allocs_per_edge << "}";
  return line.str();
}

// --- Planned executor vs hand-fused inference (BENCH_plan.json) ------------
// The per-edge inference mixes the planned arena executor (tensor/plan.h +
// tensor/executor.h) replaced: the hand-fused scalar loops TemporalPropagation
// used before the refactor, reproduced here verbatim as the baseline. Both
// sides run the same math over the same rows — SUM: fused tanh-add state fold
// + Time2Vec accumulator fold + per-node readout; GRU: staged message
// (src row ++ time encoding) through GruCell::StepInto + tanh readout.
// The baseline is pinned to the scalar kernel table (the only implementation
// that existed pre-refactor); the planned executor is measured both pinned
// scalar (pure dispatch overhead) and in the auto-selected SIMD mode.

namespace plan = tpgnn::tensor::plan;

std::vector<float> RandomRows(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.UniformFloat(-1.0f, 1.0f);
  return v;
}

std::array<const float*, plan::kNumParamSlots> PlanParamTable(
    const tpgnn::nn::Time2Vec& t2v, const tpgnn::nn::GruCell* gru) {
  std::array<const float*, plan::kNumParamSlots> table{};
  table[plan::kParamW0] = t2v.w0().data().data();
  table[plan::kParamPhi0] = t2v.phi0().data().data();
  table[plan::kParamW] = t2v.w().data().data();
  table[plan::kParamPhi] = t2v.phi().data().data();
  if (gru != nullptr) {
    table[plan::kParamWz] = gru->wz().data().data();
    table[plan::kParamUz] = gru->uz().data().data();
    table[plan::kParamBz] = gru->bz().data().data();
    table[plan::kParamWr] = gru->wr().data().data();
    table[plan::kParamUr] = gru->ur().data().data();
    table[plan::kParamBr] = gru->br().data().data();
    table[plan::kParamWn] = gru->wn().data().data();
    table[plan::kParamUn] = gru->un().data().data();
    table[plan::kParamBn] = gru->bn().data().data();
  }
  return table;
}

// The pre-refactor SUM fold (stabilized, absolute basis): fused tanh-add
// state update, Time2Vec encode + tanh-add accumulator fold, then the
// per-node readout [tanh(x) ++ tanh(m)].
void HandFusedSumSweep(const tpgnn::nn::Time2Vec& t2v, std::vector<float>& x,
                       std::vector<float>& m, std::vector<float>& out,
                       std::vector<float>& ft) {
  for (int64_t e = 0; e < kNodes; ++e) {
    const float* src = x.data() + e * kDim;
    float* dst = x.data() + ((e * 7 + 3) % kNodes) * kDim;
    for (int64_t i = 0; i < kDim; ++i) {
      dst[i] = std::tanh(src[i] + dst[i]);
    }
    t2v.EvalInto(static_cast<float>(e) * 0.01f, ft.data());
    float* mrow = m.data() + ((e * 7 + 3) % kNodes) * kTimeDim;
    for (int64_t i = 0; i < kTimeDim; ++i) {
      mrow[i] = std::tanh(ft[static_cast<size_t>(i)] + mrow[i]);
    }
  }
  for (int64_t v = 0; v < kNodes; ++v) {
    const float* xv = x.data() + v * kDim;
    const float* mv = m.data() + v * kTimeDim;
    float* o = out.data() + v * (kDim + kTimeDim);
    for (int64_t i = 0; i < kDim; ++i) o[i] = std::tanh(xv[i]);
    for (int64_t i = 0; i < kTimeDim; ++i) o[kDim + i] = std::tanh(mv[i]);
  }
}

// The same SUM sweep through the compiled plans: one edge program + one
// time program per edge, one finalize program per node.
void PlannedSumSweep(const plan::CompiledPlans& plans, plan::ParamTable params,
                     plan::PlanExecutor& exec, std::vector<float>& x,
                     std::vector<float>& m, std::vector<float>& out) {
  plan::RunContext ctx;
  for (int64_t e = 0; e < kNodes; ++e) {
    ctx.src = x.data() + e * kDim;
    ctx.dst = x.data() + ((e * 7 + 3) % kNodes) * kDim;
    exec.Run(plans.edge, params, ctx);
    ctx.m = m.data() + ((e * 7 + 3) % kNodes) * kTimeDim;
    ctx.t = static_cast<float>(e) * 0.01f;
    exec.Run(plans.time, params, ctx);
  }
  for (int64_t v = 0; v < kNodes; ++v) {
    ctx.src = x.data() + v * kDim;
    ctx.m = m.data() + v * kTimeDim;
    ctx.dst = out.data() + v * (kDim + kTimeDim);
    exec.Run(plans.finalize, params, ctx);
  }
}

// The pre-refactor GRU fold: stage [src row ++ Time2Vec(t)] in a message
// buffer, StepInto the destination row in place, tanh readout per node.
void HandFusedGruSweep(const tpgnn::nn::GruCell& gru,
                       const tpgnn::nn::Time2Vec& t2v,
                       std::vector<float>& state, std::vector<float>& out,
                       std::vector<float>& message,
                       tpgnn::nn::GruScratch& scratch) {
  for (int64_t e = 0; e < kNodes; ++e) {
    const float* src = state.data() + e * kDim;
    float* dst = state.data() + ((e * 7 + 3) % kNodes) * kDim;
    std::copy(src, src + kDim, message.begin());
    t2v.EvalInto(static_cast<float>(e) * 0.01f, message.data() + kDim);
    gru.StepInto(message.data(), dst, dst, scratch);
  }
  for (int64_t v = 0; v < kNodes; ++v) {
    const float* xv = state.data() + v * kDim;
    float* o = out.data() + v * kDim;
    for (int64_t i = 0; i < kDim; ++i) o[i] = std::tanh(xv[i]);
  }
}

void PlannedGruSweep(const plan::CompiledPlans& plans, plan::ParamTable params,
                     plan::PlanExecutor& exec, std::vector<float>& state,
                     std::vector<float>& out) {
  plan::RunContext ctx;
  for (int64_t e = 0; e < kNodes; ++e) {
    ctx.src = state.data() + e * kDim;
    ctx.dst = state.data() + ((e * 7 + 3) % kNodes) * kDim;
    ctx.t = static_cast<float>(e) * 0.01f;
    exec.Run(plans.edge, params, ctx);
  }
  for (int64_t v = 0; v < kNodes; ++v) {
    ctx.src = state.data() + v * kDim;
    ctx.dst = out.data() + v * kDim;
    exec.Run(plans.finalize, params, ctx);
  }
}

MixMeasurement MeasureSumPlanMix(bool planned, tpgnn::tensor::SimdMode mode,
                                 int rounds) {
  ScopedPoolEnabled pool(true);
  tpgnn::tensor::NoGradGuard no_grad;
  tpgnn::tensor::ScopedSimdMode pin(mode);
  Rng rng(19);
  tpgnn::nn::Time2Vec t2v(kTimeDim, rng);
  plan::PlanSpec spec;
  spec.updater = plan::PlanSpec::Updater::kSum;
  spec.embed_dim = kDim;
  spec.time_dim = kTimeDim;
  spec.stabilize = true;
  const plan::CompiledPlans plans = plan::BuildPlans(spec);
  const auto params = PlanParamTable(t2v, nullptr);
  std::vector<float> x = RandomRows(kNodes * kDim, 20);
  std::vector<float> m(static_cast<size_t>(kNodes * kTimeDim), 0.0f);
  std::vector<float> out(static_cast<size_t>(kNodes * (kDim + kTimeDim)));
  std::vector<float> ft(static_cast<size_t>(kTimeDim));
  plan::PlanExecutor exec;

  auto sweep = [&] {
    if (planned) {
      PlannedSumSweep(plans, params.data(), exec, x, m, out);
    } else {
      HandFusedSumSweep(t2v, x, m, out, ft);
    }
  };
  sweep();  // Warm the arena; values saturate but timing is shape-bound.

  const auto before = tpgnn::util::GetBufferPoolStats();
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    sweep();
    benchmark::DoNotOptimize(out.data());
  }
  const double seconds = watch.ElapsedSeconds();
  const auto after = tpgnn::util::GetBufferPoolStats();

  const double edges = static_cast<double>(rounds) * kNodes;
  MixMeasurement result;
  result.ns_per_edge = seconds * 1e9 / edges;
  result.buffer_allocs_per_edge =
      static_cast<double>(after.pool_misses - before.pool_misses) / edges;
  result.node_allocs_per_edge = static_cast<double>(
      (after.node_acquires - after.node_reuses) -
      (before.node_acquires - before.node_reuses)) / edges;
  return result;
}

MixMeasurement MeasureGruPlanMix(bool planned, tpgnn::tensor::SimdMode mode,
                                 int rounds) {
  ScopedPoolEnabled pool(true);
  tpgnn::tensor::NoGradGuard no_grad;
  tpgnn::tensor::ScopedSimdMode pin(mode);
  Rng rng(23);
  tpgnn::nn::GruCell gru(kDim + kTimeDim, kDim, rng);
  tpgnn::nn::Time2Vec t2v(kTimeDim, rng);
  plan::PlanSpec spec;
  spec.updater = plan::PlanSpec::Updater::kGru;
  spec.embed_dim = kDim;
  spec.time_dim = kTimeDim;
  const plan::CompiledPlans plans = plan::BuildPlans(spec);
  const auto params = PlanParamTable(t2v, &gru);
  std::vector<float> state = RandomRows(kNodes * kDim, 24);
  std::vector<float> out(static_cast<size_t>(kNodes * kDim));
  std::vector<float> message(static_cast<size_t>(kDim + kTimeDim));
  tpgnn::nn::GruScratch scratch;
  plan::PlanExecutor exec;

  auto sweep = [&] {
    if (planned) {
      PlannedGruSweep(plans, params.data(), exec, state, out);
    } else {
      HandFusedGruSweep(gru, t2v, state, out, message, scratch);
    }
  };
  sweep();  // Warm the arena / StepInto scratch.

  const auto before = tpgnn::util::GetBufferPoolStats();
  tpgnn::Stopwatch watch;
  for (int r = 0; r < rounds; ++r) {
    sweep();
    benchmark::DoNotOptimize(out.data());
  }
  const double seconds = watch.ElapsedSeconds();
  const auto after = tpgnn::util::GetBufferPoolStats();

  const double edges = static_cast<double>(rounds) * kNodes;
  MixMeasurement result;
  result.ns_per_edge = seconds * 1e9 / edges;
  result.buffer_allocs_per_edge =
      static_cast<double>(after.pool_misses - before.pool_misses) / edges;
  result.node_allocs_per_edge = static_cast<double>(
      (after.node_acquires - after.node_reuses) -
      (before.node_acquires - before.node_reuses)) / edges;
  return result;
}

void WritePlanReport() {
  const std::string path = tpgnn::GetEnvString("TPGNN_BENCH_PLAN_JSON",
                                               "BENCH_plan.json");
  const int rounds =
      static_cast<int>(tpgnn::GetEnvInt("TPGNN_PLAN_ROUNDS", 1000));
  const tpgnn::tensor::SimdMode active =
      tpgnn::tensor::ActiveSimdMode();
  const char* simd_name = tpgnn::tensor::SimdModeName(active);
  std::printf("== planned executor vs hand-fused inference "
              "(27 nodes x 64+6 dims, %d rounds, simd=%s) ==\n",
              rounds, simd_name);

  std::vector<std::string> lines;
  struct Mix {
    const char* bench;
    MixMeasurement (*measure)(bool, tpgnn::tensor::SimdMode, int);
  };
  const Mix mixes[] = {
      {"plan_sum_edge_mix_27x64t6", MeasureSumPlanMix},
      {"plan_gru_edge_mix_27x64t6", MeasureGruPlanMix},
  };
  for (const Mix& mix : mixes) {
    const MixMeasurement fused =
        mix.measure(false, tpgnn::tensor::SimdMode::kScalar, rounds);
    const MixMeasurement planned_scalar =
        mix.measure(true, tpgnn::tensor::SimdMode::kScalar, rounds);
    const MixMeasurement planned_simd = mix.measure(true, active, rounds);
    const double scalar_speedup = planned_scalar.ns_per_edge > 0.0
        ? fused.ns_per_edge / planned_scalar.ns_per_edge : 0.0;
    const double simd_speedup = planned_simd.ns_per_edge > 0.0
        ? fused.ns_per_edge / planned_simd.ns_per_edge : 0.0;
    std::printf("  %s\n", mix.bench);
    std::printf("    hand-fused scalar : %8.1f ns/edge  "
                "%5.2f buffer allocs/edge\n",
                fused.ns_per_edge, fused.buffer_allocs_per_edge);
    std::printf("    planned scalar    : %8.1f ns/edge  "
                "%5.2f buffer allocs/edge  (%.2fx)\n",
                planned_scalar.ns_per_edge,
                planned_scalar.buffer_allocs_per_edge, scalar_speedup);
    std::printf("    planned %-9s : %8.1f ns/edge  "
                "%5.2f buffer allocs/edge  (%.2fx)\n",
                simd_name, planned_simd.ns_per_edge,
                planned_simd.buffer_allocs_per_edge, simd_speedup);
    lines.push_back(MixJson(mix.bench, "hand_fused_scalar", fused));
    lines.push_back(MixJson(mix.bench, "planned_scalar", planned_scalar));
    lines.push_back(MixJson(mix.bench, "planned_simd", planned_simd));
    std::ostringstream line;
    line << "{\"bench\": \"" << mix.bench
         << "\", \"simd\": \"" << simd_name
         << "\", \"speedup_planned_scalar_vs_fused\": " << scalar_speedup
         << ", \"speedup_planned_simd_vs_fused\": " << simd_speedup << "}";
    lines.push_back(line.str());
  }

  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::printf("wrote %s\n\n", path.c_str());
  std::fflush(stdout);
}

// A tiny fig6-style cell (HDFS, paper-default dims): train seconds and
// inference microseconds per graph, pool off vs on. Absolute numbers are
// comparable with the TP-GNN cells fig6_runtime reports at the same
// TPGNN_GRAPHS scale.
std::string MeasureModelCell(const char* name, tpgnn::core::Updater updater) {
  namespace core = tpgnn::core;
  namespace data = tpgnn::data;
  namespace eval = tpgnn::eval;

  tpgnn::graph::GraphDataset dataset =
      data::MakeDataset(data::HdfsSpec(), 60, /*seed=*/21);
  core::TpGnnConfig config;
  config.updater = updater;

  double train_seconds[2] = {0.0, 0.0};
  double infer_micros[2] = {0.0, 0.0};
  for (int pool_on = 0; pool_on < 2; ++pool_on) {
    ScopedPoolEnabled pool(pool_on != 0);
    core::TpGnnModel model(config, 7);
    eval::TrainOptions options;
    options.epochs = 2;
    options.learning_rate = 3e-3f;
    options.seed = 11;
    tpgnn::Stopwatch train_watch;
    eval::TrainClassifier(model, dataset, options);
    train_seconds[pool_on] = train_watch.ElapsedSeconds();
    infer_micros[pool_on] =
        eval::MeasureInferenceMicros(model, dataset, /*num_threads=*/1);
  }

  std::ostringstream line;
  line << "{\"bench\": \"fig6_cell_hdfs_" << name
       << "\", \"train_seconds_pool_off\": " << train_seconds[0]
       << ", \"train_seconds_pool_on\": " << train_seconds[1]
       << ", \"train_speedup\": "
       << (train_seconds[1] > 0.0 ? train_seconds[0] / train_seconds[1] : 0.0)
       << ", \"inference_us_per_graph_pool_off\": " << infer_micros[0]
       << ", \"inference_us_per_graph_pool_on\": " << infer_micros[1] << "}";
  return line.str();
}

void WriteAllocReport() {
  const std::string path = tpgnn::GetEnvString("TPGNN_BENCH_ALLOC_JSON",
                                               "BENCH_alloc.json");
  const int rounds =
      static_cast<int>(tpgnn::GetEnvInt("TPGNN_ALLOC_ROUNDS", 400));
  std::printf("== per-edge op mix (27 nodes x 64 dims, %d rounds) ==\n",
              rounds);
  const MixMeasurement seed = MeasureSeedTrainMix(rounds);
  const MixMeasurement off = MeasurePerEdgeMix(false, rounds);
  const MixMeasurement on = MeasurePerEdgeMix(true, rounds);
  const double train_speedup =
      on.ns_per_edge > 0.0 ? seed.ns_per_edge / on.ns_per_edge : 0.0;
  const double pool_speedup =
      on.ns_per_edge > 0.0 ? off.ns_per_edge / on.ns_per_edge : 0.0;
  std::printf("  seed (unfused, no pool): %8.1f ns/edge  "
              "%5.2f buffer allocs/edge  %5.2f node allocs/edge\n",
              seed.ns_per_edge, seed.buffer_allocs_per_edge,
              seed.node_allocs_per_edge);
  std::printf("  fused, pool off        : %8.1f ns/edge  "
              "%5.2f buffer allocs/edge  %5.2f node allocs/edge\n",
              off.ns_per_edge, off.buffer_allocs_per_edge,
              off.node_allocs_per_edge);
  std::printf("  fused, pool on         : %8.1f ns/edge  "
              "%5.2f buffer allocs/edge  %5.2f node allocs/edge\n",
              on.ns_per_edge, on.buffer_allocs_per_edge,
              on.node_allocs_per_edge);
  std::printf("  train speedup vs seed  : %.2fx (pool on vs off: %.2fx)\n",
              train_speedup, pool_speedup);

  const double infer_seed = MeasureSeedInferenceMix(rounds * 3);
  const double infer_now = MeasureZeroCopyInferenceMix(rounds * 3);
  const double infer_speedup = infer_now > 0.0 ? infer_seed / infer_now : 0.0;
  std::printf("  inference: seed recorded-ops %8.1f ns/edge, zero-copy row "
              "views %8.1f ns/edge -> %.2fx\n",
              infer_seed, infer_now, infer_speedup);

  std::printf("== SUM-updater per-edge mix (27 nodes x 64+6 dims, %d rounds)"
              " ==\n", rounds);
  const MixMeasurement sum_seed =
      MeasureSumTrainMix(/*pool=*/false, /*fused_assembly=*/false, rounds);
  const MixMeasurement sum_now =
      MeasureSumTrainMix(/*pool=*/true, /*fused_assembly=*/true, rounds);
  const double sum_train_speedup =
      sum_now.ns_per_edge > 0.0 ? sum_seed.ns_per_edge / sum_now.ns_per_edge
                                : 0.0;
  std::printf("  seed (no pool)         : %8.1f ns/edge  "
              "%5.2f buffer allocs/edge  %5.2f node allocs/edge\n",
              sum_seed.ns_per_edge, sum_seed.buffer_allocs_per_edge,
              sum_seed.node_allocs_per_edge);
  std::printf("  pooled, fused assembly : %8.1f ns/edge  "
              "%5.2f buffer allocs/edge  %5.2f node allocs/edge\n",
              sum_now.ns_per_edge, sum_now.buffer_allocs_per_edge,
              sum_now.node_allocs_per_edge);
  const double sum_infer_seed = MeasureSumSeedInferenceMix(rounds * 3);
  const double sum_infer_now = MeasureSumZeroCopyInferenceMix(rounds * 3);
  const double sum_infer_speedup =
      sum_infer_now > 0.0 ? sum_infer_seed / sum_infer_now : 0.0;
  std::printf("  train speedup vs seed  : %.2fx\n", sum_train_speedup);
  std::printf("  inference: seed recorded-ops %8.1f ns/edge, zero-copy row "
              "updates %8.1f ns/edge -> %.2fx\n",
              sum_infer_seed, sum_infer_now, sum_infer_speedup);

  std::vector<std::string> lines;
  lines.push_back(MixJson("gru_per_edge_train_mix_27x64",
                          "seed_unfused_nopool", seed));
  lines.push_back(MixJson("gru_per_edge_train_mix_27x64", "fused_pool_off",
                          off));
  lines.push_back(MixJson("gru_per_edge_train_mix_27x64", "fused_pool_on",
                          on));
  {
    std::ostringstream line;
    line << "{\"bench\": \"gru_per_edge_train_mix_27x64\", "
         << "\"speedup_vs_seed\": " << train_speedup
         << ", \"speedup_pool_on_vs_off\": " << pool_speedup << "}";
    lines.push_back(line.str());
  }
  {
    std::ostringstream line;
    line << "{\"bench\": \"gru_per_edge_inference_mix_27x64\", "
         << "\"seed_recorded_ns_per_edge\": " << infer_seed
         << ", \"zero_copy_ns_per_edge\": " << infer_now
         << ", \"speedup\": " << infer_speedup << "}";
    lines.push_back(line.str());
  }
  lines.push_back(MixJson("sum_per_edge_train_mix_27x64",
                          "seed_unfused_nopool", sum_seed));
  lines.push_back(MixJson("sum_per_edge_train_mix_27x64",
                          "fused_pool_on", sum_now));
  {
    std::ostringstream line;
    line << "{\"bench\": \"sum_per_edge_train_mix_27x64\", "
         << "\"speedup_vs_seed\": " << sum_train_speedup << "}";
    lines.push_back(line.str());
  }
  {
    std::ostringstream line;
    line << "{\"bench\": \"sum_per_edge_inference_mix_27x64\", "
         << "\"seed_recorded_ns_per_edge\": " << sum_infer_seed
         << ", \"zero_copy_ns_per_edge\": " << sum_infer_now
         << ", \"speedup\": " << sum_infer_speedup << "}";
    lines.push_back(line.str());
  }
  lines.push_back(MeasureModelCell("tpgnn_sum", tpgnn::core::Updater::kSum));
  lines.push_back(MeasureModelCell("tpgnn_gru", tpgnn::core::Updater::kGru));

  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    out << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::printf("wrote %s\n\n", path.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  WriteAllocReport();
  WritePlanReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
