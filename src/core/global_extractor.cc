#include "core/global_extractor.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace tpgnn::core {

using tensor::Add;
using tensor::GatherRows;
using tensor::RowSpanOf;
using tensor::Scale;
using tensor::Tensor;

Tensor AggregateEdge(EdgeAgg agg, const Tensor& h_u, const Tensor& h_v) {
  switch (agg) {
    case EdgeAgg::kAverage:
      return Scale(Add(h_u, h_v), 0.5f);
    case EdgeAgg::kHadamard:
      return tensor::Mul(h_u, h_v);
    case EdgeAgg::kWeightedL1: {
      Tensor diff = tensor::Sub(h_u, h_v);
      // |x| = relu(x) + relu(-x) keeps the expression differentiable a.e.
      return Add(tensor::Relu(diff), tensor::Relu(tensor::Neg(diff)));
    }
    case EdgeAgg::kWeightedL2: {
      Tensor diff = tensor::Sub(h_u, h_v);
      return tensor::Mul(diff, diff);
    }
    case EdgeAgg::kActivation:
      return tensor::Tanh(Add(h_u, h_v));
    case EdgeAgg::kConcatenation:
      // Vectors concatenate along axis 0; batched [m, k] endpoint matrices
      // concatenate per row (axis 1). Elementwise aggregations above work on
      // either rank unchanged.
      return tensor::Concat({h_u, h_v}, /*axis=*/h_u.dim() == 2 ? 1 : 0);
  }
  TPGNN_CHECK(false) << "unreachable";
  return h_u;
}

int64_t EdgeAggOutputDim(EdgeAgg agg, int64_t node_dim) {
  return agg == EdgeAgg::kConcatenation ? 2 * node_dim : node_dim;
}

namespace {

// Edges per two-phase chunk of the inference sweep: bounds the staged
// projection buffers at 64 x (edge_dim + 3 x hidden_dim) floats while giving
// the input-projection GEMMs enough rows to stream each weight once per
// chunk.
constexpr int64_t kSweepChunk = 64;

// Raw counterpart of AggregateEdge for the zero-copy inference path: writes
// the edge embedding for endpoint rows `u` and `v` (each `k` wide) into
// `out`. Mirrors the tensor ops' elementwise expressions exactly so the
// values match the recorded path bitwise.
void AggregateEdgeInto(EdgeAgg agg, const float* u, const float* v, int64_t k,
                       float* out) {
  switch (agg) {
    case EdgeAgg::kAverage:
      for (int64_t i = 0; i < k; ++i) out[i] = (u[i] + v[i]) * 0.5f;
      return;
    case EdgeAgg::kHadamard:
      for (int64_t i = 0; i < k; ++i) out[i] = u[i] * v[i];
      return;
    case EdgeAgg::kWeightedL1:
      for (int64_t i = 0; i < k; ++i) {
        const float diff = u[i] - v[i];
        const float neg = -diff;
        out[i] = (diff > 0.0f ? diff : 0.0f) + (neg > 0.0f ? neg : 0.0f);
      }
      return;
    case EdgeAgg::kWeightedL2:
      for (int64_t i = 0; i < k; ++i) {
        const float diff = u[i] - v[i];
        out[i] = diff * diff;
      }
      return;
    case EdgeAgg::kActivation:
      for (int64_t i = 0; i < k; ++i) out[i] = std::tanh(u[i] + v[i]);
      return;
    case EdgeAgg::kConcatenation:
      for (int64_t i = 0; i < k; ++i) out[i] = u[i];
      for (int64_t i = 0; i < k; ++i) out[k + i] = v[i];
      return;
  }
  TPGNN_CHECK(false) << "unreachable";
}

}  // namespace

GlobalTemporalExtractor::GlobalTemporalExtractor(int64_t node_dim,
                                                 int64_t hidden_dim, Rng& rng,
                                                 ExtractorReadout readout,
                                                 EdgeAgg edge_agg)
    : node_dim_(node_dim),
      edge_dim_(EdgeAggOutputDim(edge_agg, node_dim)),
      hidden_dim_(hidden_dim),
      readout_(readout),
      edge_agg_(edge_agg),
      gru_(edge_dim_, hidden_dim, rng) {
  RegisterChild("gru", &gru_);
}

Tensor GlobalTemporalExtractor::Forward(
    const Tensor& node_embeddings,
    const std::vector<graph::TemporalEdge>& edge_order) const {
  TPGNN_CHECK_EQ(node_embeddings.dim(), 2);
  TPGNN_CHECK_EQ(node_embeddings.size(1), node_dim_);

  if (!tensor::GradEnabled()) {
    return ForwardInference(node_embeddings, edge_order);
  }

  const int64_t m = static_cast<int64_t>(edge_order.size());
  if (m == 0) {
    return Tensor::Zeros({hidden_dim_});
  }

  // The endpoint lookups are two gathers and the edge aggregation one
  // matrix-level op; Eqs. (7)-(10), one GRU step per edge in establishment
  // order, are a single recorded op over the [m, edge_dim] edge matrix.
  std::vector<int64_t> srcs(static_cast<size_t>(m));
  std::vector<int64_t> dsts(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    srcs[static_cast<size_t>(i)] = edge_order[static_cast<size_t>(i)].src;
    dsts[static_cast<size_t>(i)] = edge_order[static_cast<size_t>(i)].dst;
  }
  Tensor hu = GatherRows(node_embeddings, srcs);        // [m, k]
  Tensor hv = GatherRows(node_embeddings, dsts);        // [m, k]
  Tensor edges = AggregateEdge(edge_agg_, hu, hv);      // [m, edge_dim]
  return gru_.ForwardSequence(edges,
                              readout_ == ExtractorReadout::kLastState
                                  ? nn::SequenceReadout::kLastState
                                  : nn::SequenceReadout::kMeanState);
}

Tensor GlobalTemporalExtractor::ForwardInference(
    const Tensor& node_embeddings,
    const std::vector<graph::TemporalEdge>& edge_order) const {
  // Zero-copy two-phase sweep over chunks of up to kSweepChunk edges. Phase
  // one builds the chunk's edge embeddings and runs the gates' input
  // projections as multi-row GEMMs (GruCell::ProjectInputs); phase two runs
  // GruCell::Step per edge, the step every GRU recurrence shares. The mean
  // accumulates like GruCell::ForwardSequence's, so the readout is
  // bit-identical to the training forward in scalar mode and to one
  // projection and step per edge in every mode.
  const int64_t d = hidden_dim_;
  std::vector<float> state(static_cast<size_t>(d), 0.0f);
  if (edge_order.empty()) {
    return Tensor::FromVector({d}, std::move(state));
  }
  const tensor::Kernels& ker = tensor::ActiveKernels();
  const int64_t total = static_cast<int64_t>(edge_order.size());
  const int64_t rows = std::min(total, kSweepChunk);
  // One buffer: chunk edge embeddings [rows, edge_dim], the three input
  // projections [rows, d] each, and the h·Un and candidate rows.
  std::vector<float> work(static_cast<size_t>(rows * (edge_dim_ + 3 * d) +
                                              2 * d));
  float* edges = work.data();
  float* xz = edges + rows * edge_dim_;
  float* xr = xz + rows * d;
  float* xn = xr + rows * d;
  float* hu = xn + rows * d;
  float* cand = hu + d;
  std::vector<float> acc(static_cast<size_t>(d), 0.0f);
  const bool mean = readout_ == ExtractorReadout::kMeanState;
  float* h = state.data();

  for (int64_t begin = 0; begin < total; begin += kSweepChunk) {
    const int64_t count = std::min(kSweepChunk, total - begin);
    for (int64_t i = 0; i < count; ++i) {
      const graph::TemporalEdge& e =
          edge_order[static_cast<size_t>(begin + i)];
      AggregateEdgeInto(edge_agg_, RowSpanOf(node_embeddings, e.src).data,
                        RowSpanOf(node_embeddings, e.dst).data, node_dim_,
                        edges + i * edge_dim_);
    }
    ker.zero(xz, count * d);
    ker.zero(xr, count * d);
    ker.zero(xn, count * d);
    gru_.ProjectInputs(ker, edges, count, xz, xr, xn);

    // Eqs. (7)-(10), one GRU step per edge in establishment order.
    for (int64_t i = 0; i < count; ++i) {
      gru_.Step(ker, h, xz + i * d, xr + i * d, xn + i * d, hu, cand, h);
      if (mean) ker.add_accumulate(acc.data(), h, d);
    }
  }
  if (!mean) {
    return Tensor::FromVector({d}, std::move(state));
  }
  ker.scale_inplace(acc.data(), 1.0f / static_cast<float>(total), d);
  return Tensor::FromVector({d}, std::move(acc));
}

}  // namespace tpgnn::core
