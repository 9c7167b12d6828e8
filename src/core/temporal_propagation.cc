#include "core/temporal_propagation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "tensor/ops.h"
#include "util/buffer_pool.h"
#include "util/logging.h"

namespace tpgnn::core {

using tensor::Concat;
using tensor::GatherRows;
using tensor::MutableRowSpan;
using tensor::Reshape;
using tensor::RowSpanOf;
using tensor::Tanh;
using tensor::Tensor;

double NormalizeTime(const TpGnnConfig& config, double t, double max_time) {
  if (!config.normalize_time || max_time <= 0.0) return t;
  return t / max_time * config.time_scale;
}

TemporalPropagation::TemporalPropagation(const TpGnnConfig& config, Rng& rng)
    : config_(config),
      embed_(config.feature_dim, config.embed_dim, rng) {
  RegisterChild("embed", &embed_);
  if (config_.use_time_encoding() && config_.use_temporal_propagation()) {
    time_ = std::make_unique<nn::Time2Vec>(config_.time_dim, rng);
    RegisterChild("time2vec", time_.get());
  }
  if (config_.updater == Updater::kGru &&
      config_.use_temporal_propagation()) {
    const int64_t input_dim =
        config_.embed_dim + (time_ != nullptr ? config_.time_dim : 0);
    updater_ = std::make_unique<nn::GruCell>(input_dim, config_.embed_dim, rng);
    RegisterChild("updater", updater_.get());
  }
  // Compile (or fetch) the per-edge programs for this shape. Programs are
  // pure shape — parameters are bound per run through PlanParams() — so
  // models with the same spec share one compiled plan. Variants without
  // temporal propagation still need the finalize program (readout is
  // Tanh(x)); their edge/time programs are never run.
  tensor::plan::PlanSpec spec;
  spec.updater = updater_ != nullptr ? tensor::plan::PlanSpec::Updater::kGru
                                     : tensor::plan::PlanSpec::Updater::kSum;
  spec.embed_dim = static_cast<int32_t>(config_.embed_dim);
  spec.time_dim = time_ != nullptr ? static_cast<int32_t>(config_.time_dim) : 0;
  spec.stabilize = config_.stabilize_sum;
  spec.invariant =
      time_ != nullptr && config_.time_basis == TimeBasis::kInvariant;
  plans_ = tensor::plan::PlanCache::Global().Get(spec);
}

std::array<const float*, tensor::plan::kNumParamSlots>
TemporalPropagation::PlanParams() const {
  std::array<const float*, tensor::plan::kNumParamSlots> params{};
  if (time_ != nullptr) {
    params[tensor::plan::kParamW0] = time_->w0().data().data();
    params[tensor::plan::kParamPhi0] = time_->phi0().data().data();
    params[tensor::plan::kParamW] = time_->w().data().data();
    params[tensor::plan::kParamPhi] = time_->phi().data().data();
  }
  if (updater_ != nullptr) {
    params[tensor::plan::kParamWz] = updater_->wz().data().data();
    params[tensor::plan::kParamUz] = updater_->uz().data().data();
    params[tensor::plan::kParamBz] = updater_->bz().data().data();
    params[tensor::plan::kParamWr] = updater_->wr().data().data();
    params[tensor::plan::kParamUr] = updater_->ur().data().data();
    params[tensor::plan::kParamBr] = updater_->br().data().data();
    params[tensor::plan::kParamWn] = updater_->wn().data().data();
    params[tensor::plan::kParamUn] = updater_->un().data().data();
    params[tensor::plan::kParamBn] = updater_->bn().data().data();
  }
  return params;
}

int64_t TemporalPropagation::output_dim() const {
  if (!config_.use_temporal_propagation()) {
    return config_.embed_dim;
  }
  if (config_.updater == Updater::kSum) {
    return config_.embed_dim + (time_ != nullptr ? config_.time_dim : 0);
  }
  return config_.embed_dim;
}

Tensor TemporalPropagation::Forward(
    const graph::TemporalGraph& graph,
    const std::vector<graph::TemporalEdge>& edge_order) const {
  const int64_t n = graph.num_nodes();
  TPGNN_CHECK_GT(n, 0);
  TPGNN_CHECK_EQ(graph.feature_dim(), config_.feature_dim);

  // Eq. (1): embed raw features into dense vectors.
  Tensor x = embed_.Forward(graph.FeatureMatrix());  // [n, embed_dim]

  if (!config_.use_temporal_propagation()) {
    // Inference readout goes through the planned executor so offline scores
    // match serving bitwise in every SIMD mode (scalar tanh is libm there
    // too, so scalar mode also matches this recorded path bitwise).
    if (!tensor::GradEnabled()) {
      return FinalizeState(x, Tensor(), /*max_time=*/0.0);
    }
    return Tanh(x);
  }

  const double max_time = graph.MaxTime();

  if (!tensor::GradEnabled()) {
    return ForwardInference(std::move(x), edge_order, max_time);
  }

  if (config_.updater == Updater::kSum) {
    return ForwardSum(x, edge_order, max_time);
  }

  const bool invariant =
      time_ != nullptr && config_.time_basis == TimeBasis::kInvariant;
  // GRU updater, Eq. (6): h_v <- GRU(h_v, [h_u ++ f(t)]). In the invariant
  // basis f consumes the inter-event gap instead of the (normalized)
  // absolute timestamp.
  std::vector<Tensor> h(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    h[static_cast<size_t>(v)] = GatherRows(x, {v});  // [1, embed_dim]
  }
  double prev_time = 0.0;
  for (const graph::TemporalEdge& e : edge_order) {
    const size_t v = static_cast<size_t>(e.dst);
    const size_t u = static_cast<size_t>(e.src);
    Tensor message = h[u];
    if (time_ != nullptr) {
      const float t = static_cast<float>(
          invariant ? e.time - prev_time
                    : NormalizeTime(config_, e.time, max_time));
      Tensor ft = Reshape(time_->Forward(t), {1, config_.time_dim});
      message = Concat({message, ft}, /*axis=*/1);
    }
    h[v] = updater_->Forward(message, h[v]);
    prev_time = e.time;
  }
  std::vector<Tensor> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    rows.push_back(h[static_cast<size_t>(v)]);
  }
  return Tanh(Concat(rows, /*axis=*/0));
}

namespace {

// What ForwardSum saves for its reverse sweep. The float buffers come from
// the tensor buffer pool and go back when the tape drops the closure.
struct SumTape {
  int64_t n = 0;      // Nodes.
  int64_t e = 0;      // embed_dim: the X-hat width.
  int64_t td = 0;     // time_dim, or 0 without Time2Vec.
  int64_t width = 0;  // e + td: the output row width.
  bool stabilize = false;
  bool invariant = false;
  // The op's inputs in order: x, then Time2Vec's w0, phi0, w, phi.
  std::vector<std::shared_ptr<tensor::TensorImpl>> in;
  std::vector<int64_t> src, dst;  // Edge endpoints in edge order.
  // Per edge, the Time2Vec argument: normalized time in the absolute basis,
  // raw time in the invariant one.
  std::vector<float> t;
  // Rows the squashed recurrences wrote, per edge (stabilize only): X-hat[v]
  // [m, e] and, in the absolute basis, M-hat[v] [m, td].
  std::vector<float> xsteps, msteps;
  // Invariant basis: per node the phasor sums [n, td - 1] each, Σt and the
  // event count; the rotation table [td - 1] each; the linear channel's
  // rescale and the max time.
  std::vector<float> psin, pcos, tsum, count, rot_cos, rot_sin;
  float sf = 1.0f;
  float tmax = 0.0f;

  ~SumTape() {
    for (std::vector<float>* buffer : {&t, &xsteps, &msteps, &psin, &pcos,
                                       &tsum, &count, &rot_cos, &rot_sin}) {
      util::ReleaseBuffer(std::move(*buffer));
    }
  }

  // `y` is the op's output, `grad_out` dL/dy.
  void Backward(const float* y, const std::vector<float>& grad_out) const;
  // Time2Vec's gradients from g = dL/d(pre-readout).
  void TimeBackward(float* g) const;
};

void SumTape::Backward(const float* y,
                       const std::vector<float>& grad_out) const {
  // Eq. (5) readout: the Tanh rule gives dL/d[X-hat ++ M] per node.
  std::vector<float> g = util::AcquireBuffer(grad_out.size());
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = (1.0f - y[i] * y[i]) * grad_out[i];
  }
  if (td > 0) {
    TimeBackward(g.data());
  }
  if (in[0]->requires_grad) {
    // Reverse sweep of Eq. (3). Before edge i runs, g[v] is dL/dX-hat[v] as
    // edge i left it; the step's (squashed) sum passes that on to the old
    // X-hat[v] and adds it to X-hat[u], which the step only read. A
    // self-loop gets both shares.
    const int64_t m = static_cast<int64_t>(src.size());
    for (int64_t i = m - 1; i >= 0; --i) {
      float* gv = g.data() + dst[static_cast<size_t>(i)] * width;
      float* gu = g.data() + src[static_cast<size_t>(i)] * width;
      const float* yi = stabilize ? xsteps.data() + i * e : nullptr;
      for (int64_t j = 0; j < e; ++j) {
        const float d = yi != nullptr ? (1.0f - yi[j] * yi[j]) * gv[j] : gv[j];
        gv[j] = d;
        gu[j] += d;
      }
    }
    float* gx = tensor::GradBufferFor(*in[0]).data();
    for (int64_t v = 0; v < n; ++v) {
      for (int64_t j = 0; j < e; ++j) {
        gx[v * e + j] += g[static_cast<size_t>(v * width + j)];
      }
    }
  }
  util::ReleaseBuffer(std::move(g));
}

void SumTape::TimeBackward(float* g) const {
  bool needed = false;
  for (size_t i = 1; i < in.size(); ++i) {
    needed = needed || in[i]->requires_grad;
  }
  if (!needed) {
    return;
  }
  const int64_t m = static_cast<int64_t>(src.size());
  const int64_t p = td - 1;
  const float* w = in[3]->data.data();
  const float* phi = in[4]->data.data();
  float dw0 = 0.0f;
  float dphi0 = 0.0f;
  std::vector<float> dw = util::AcquireBuffer(static_cast<size_t>(p));
  std::vector<float> dphi = util::AcquireBuffer(static_cast<size_t>(p));
  // dL/d(angle w t + phi) of one edge into Time2Vec's gradients.
  const auto add_angle = [&](float ti, int64_t j, float dtheta) {
    dw[static_cast<size_t>(j)] += ti * dtheta;
    dphi[static_cast<size_t>(j)] += dtheta;
  };
  if (!invariant) {
    // Reverse sweep of Eq. (4): M-hat[v] <- f(t) + M-hat[v], optionally
    // squashed. The sum's gradient reaches f(t) and the old M-hat[v] alike,
    // so g[v] is updated in place to the latter.
    for (int64_t i = m - 1; i >= 0; --i) {
      float* gm = g + dst[static_cast<size_t>(i)] * width + e;
      if (stabilize) {
        const float* yi = msteps.data() + i * td;
        for (int64_t j = 0; j < td; ++j) {
          gm[j] = (1.0f - yi[j] * yi[j]) * gm[j];
        }
      }
      const float ti = t[static_cast<size_t>(i)];
      dw0 += ti * gm[0];
      dphi0 += gm[0];
      for (int64_t j = 0; j < p; ++j) {
        add_angle(ti, j, std::cos(w[j] * ti + phi[j]) * gm[1 + j]);
      }
    }
  } else {
    // The correction M[v] = [w0 (Σt) sf + phi0 k] ++ (PS[v] cos(w T) -
    // PC[v] sin(w T)), divided by k when stabilized, then the plain sums
    // PS/PC over v's edges.
    std::vector<float> dps = util::AcquireBuffer(static_cast<size_t>(n * p));
    std::vector<float> dpc = util::AcquireBuffer(static_cast<size_t>(n * p));
    std::vector<float> drc = util::AcquireBuffer(static_cast<size_t>(p));
    std::vector<float> drs = util::AcquireBuffer(static_cast<size_t>(p));
    for (int64_t v = 0; v < n; ++v) {
      float* gm = g + v * width + e;
      const float k = count[static_cast<size_t>(v)];
      if (stabilize) {
        const float invk = k > 0.0f ? 1.0f / k : 1.0f;
        for (int64_t j = 0; j < td; ++j) {
          gm[j] = invk * gm[j];
        }
      }
      dw0 += (tsum[static_cast<size_t>(v)] * sf) * gm[0];
      dphi0 += k * gm[0];
      for (int64_t j = 0; j < p; ++j) {
        const size_t vj = static_cast<size_t>(v * p + j);
        const size_t sj = static_cast<size_t>(j);
        dps[vj] = rot_cos[sj] * gm[1 + j];
        dpc[vj] = -(rot_sin[sj] * gm[1 + j]);
        drc[sj] += psin[vj] * gm[1 + j];
        drs[sj] -= pcos[vj] * gm[1 + j];
      }
    }
    for (int64_t j = 0; j < p; ++j) {
      const float theta = w[j] * tmax;
      const size_t sj = static_cast<size_t>(j);
      dw[sj] += tmax * (std::cos(theta) * drs[sj] - std::sin(theta) * drc[sj]);
    }
    for (int64_t i = 0; i < m; ++i) {
      const float ti = t[static_cast<size_t>(i)];
      const int64_t row = dst[static_cast<size_t>(i)] * p;
      for (int64_t j = 0; j < p; ++j) {
        const float theta = w[j] * ti + phi[j];
        const size_t vj = static_cast<size_t>(row + j);
        add_angle(ti, j, std::cos(theta) * dps[vj] - std::sin(theta) * dpc[vj]);
      }
    }
    for (std::vector<float>* buffer : {&dps, &dpc, &drc, &drs}) {
      util::ReleaseBuffer(std::move(*buffer));
    }
  }
  const float* grads[] = {&dw0, &dphi0, dw.data(), dphi.data()};
  for (size_t i = 1; i < in.size(); ++i) {
    if (in[i]->requires_grad) {
      std::vector<float>& into = tensor::GradBufferFor(*in[i]);
      for (size_t j = 0; j < into.size(); ++j) {
        into[j] += grads[i - 1][j];
      }
    }
  }
  util::ReleaseBuffer(std::move(dw));
  util::ReleaseBuffer(std::move(dphi));
}

}  // namespace

Tensor TemporalPropagation::ForwardSum(
    const Tensor& x, const std::vector<graph::TemporalEdge>& edge_order,
    double max_time) const {
  auto tape = std::make_shared<SumTape>();
  SumTape& s = *tape;
  const int64_t n = x.size(0);
  const int64_t e = config_.embed_dim;
  const int64_t td = time_ != nullptr ? config_.time_dim : 0;
  const int64_t p = td - 1;
  const int64_t width = e + td;
  const int64_t m = static_cast<int64_t>(edge_order.size());
  const bool stabilize = config_.stabilize_sum;
  const bool invariant =
      time_ != nullptr && config_.time_basis == TimeBasis::kInvariant;
  s.n = n;
  s.e = e;
  s.td = td;
  s.width = width;
  s.stabilize = stabilize;
  s.invariant = invariant;

  std::vector<Tensor> inputs = {x};
  if (time_ != nullptr) {
    inputs.insert(inputs.end(),
                  {time_->w0(), time_->phi0(), time_->w(), time_->phi()});
  }
  // Per-step rows are saved only when the op records a node.
  const bool record =
      tensor::GradEnabled() &&
      std::any_of(inputs.begin(), inputs.end(),
                  [](const Tensor& in) { return in.requires_grad(); });

  s.src.resize(static_cast<size_t>(m));
  s.dst.resize(static_cast<size_t>(m));
  s.t = util::AcquireBuffer(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    const graph::TemporalEdge& edge = edge_order[static_cast<size_t>(i)];
    TPGNN_CHECK(edge.src >= 0 && edge.src < n && edge.dst >= 0 &&
                edge.dst < n)
        << "edge " << i << " endpoint out of range";
    s.src[static_cast<size_t>(i)] = edge.src;
    s.dst[static_cast<size_t>(i)] = edge.dst;
    s.t[static_cast<size_t>(i)] = static_cast<float>(
        invariant ? edge.time : NormalizeTime(config_, edge.time, max_time));
  }
  if (record && stabilize) {
    s.xsteps = util::AcquireBuffer(static_cast<size_t>(m * e));
    if (td > 0 && !invariant) {
      s.msteps = util::AcquireBuffer(static_cast<size_t>(m * td));
    }
  }
  if (invariant) {
    s.psin = util::AcquireBuffer(static_cast<size_t>(n * p));
    s.pcos = util::AcquireBuffer(static_cast<size_t>(n * p));
    s.tsum = util::AcquireBuffer(static_cast<size_t>(n));
    s.count = util::AcquireBuffer(static_cast<size_t>(n));
    s.rot_cos = util::AcquireBuffer(static_cast<size_t>(p));
    s.rot_sin = util::AcquireBuffer(static_cast<size_t>(p));
  }

  // Row v of the output holds X-hat[v] in columns [0, e) and, in the
  // absolute basis, M-hat[v] in [e, width). Every float expression below is
  // the one the per-edge ops computed (Add, Tanh, Time2Vec::Forward's
  // Scale/Add/Sin, the correction's Scale/Mul/Sub), in the same order.
  std::vector<float> out = util::AcquireBuffer(static_cast<size_t>(n * width));
  const float* xd = x.data().data();
  for (int64_t v = 0; v < n; ++v) {
    std::copy(xd + v * e, xd + (v + 1) * e, out.data() + v * width);
  }
  const float* w0 = td > 0 ? time_->w0().data().data() : nullptr;
  const float* phi0 = td > 0 ? time_->phi0().data().data() : nullptr;
  const float* w = td > 0 ? time_->w().data().data() : nullptr;
  const float* phi = td > 0 ? time_->phi().data().data() : nullptr;
  for (int64_t i = 0; i < m; ++i) {
    const int64_t v = s.dst[static_cast<size_t>(i)];
    const float* xu = out.data() + s.src[static_cast<size_t>(i)] * width;
    float* xv = out.data() + v * width;
    // Eq. (3): the target absorbs the source's current state. With
    // stabilize_sum each step is squashed so dense graphs cannot blow up.
    // A self-loop doubles the row.
    for (int64_t j = 0; j < e; ++j) {
      const float sum = xu[j] + xv[j];
      xv[j] = stabilize ? std::tanh(sum) : sum;
    }
    if (!s.xsteps.empty()) {
      std::copy(xv, xv + e, s.xsteps.data() + i * e);
    }
    if (td == 0) {
      continue;
    }
    const float t = s.t[static_cast<size_t>(i)];
    if (invariant) {
      // Eq. (4) in the invariant basis: accumulate the raw-time phasor
      // sin/cos(w t + phi), Σt and the count; the max-time coupling is
      // deferred to the correction below. Stabilization becomes the mean
      // at readout — a per-step squash would destroy the rotation identity.
      float* ps = s.psin.data() + v * p;
      float* pc = s.pcos.data() + v * p;
      for (int64_t j = 0; j < p; ++j) {
        const float theta = w[j] * t + phi[j];
        ps[j] = std::sin(theta) + ps[j];
        pc[j] = std::cos(theta) + pc[j];
      }
      s.tsum[static_cast<size_t>(v)] = t + s.tsum[static_cast<size_t>(v)];
      s.count[static_cast<size_t>(v)] = 1.0f + s.count[static_cast<size_t>(v)];
    } else {
      // Eq. (4): accumulate the interaction-time encoding f(t).
      float* mv = xv + e;
      mv[0] = (w0[0] * t + phi0[0]) + mv[0];
      for (int64_t j = 0; j < p; ++j) {
        mv[1 + j] = std::sin(w[j] * t + phi[j]) + mv[1 + j];
      }
      if (stabilize) {
        for (int64_t j = 0; j < td; ++j) {
          mv[j] = std::tanh(mv[j]);
        }
        if (!s.msteps.empty()) {
          std::copy(mv, mv + td, s.msteps.data() + i * td);
        }
      }
    }
  }
  if (invariant) {
    // Deferred max-time correction (DESIGN.md §4.3), shared across nodes:
    // linear channel w0 (Σt) s + phi0 k with s = time_scale/max_time, and
    // phasor rotation by w·max_time so row v reads Σ sin(w (t−T) + phi).
    s.sf = static_cast<float>((config_.normalize_time && max_time > 0.0)
                                  ? config_.time_scale / max_time
                                  : 1.0);
    s.tmax = static_cast<float>(max_time);
    for (int64_t j = 0; j < p; ++j) {
      s.rot_cos[static_cast<size_t>(j)] = std::cos(w[j] * s.tmax);
      s.rot_sin[static_cast<size_t>(j)] = std::sin(w[j] * s.tmax);
    }
    for (int64_t v = 0; v < n; ++v) {
      float* mv = out.data() + v * width + e;
      const float* ps = s.psin.data() + v * p;
      const float* pc = s.pcos.data() + v * p;
      const float k = s.count[static_cast<size_t>(v)];
      const float sn = s.tsum[static_cast<size_t>(v)] * s.sf;
      mv[0] = w0[0] * sn + phi0[0] * k;
      for (int64_t j = 0; j < p; ++j) {
        mv[1 + j] = ps[j] * s.rot_cos[static_cast<size_t>(j)] -
                    pc[j] * s.rot_sin[static_cast<size_t>(j)];
      }
      if (stabilize) {
        const float invk = k > 0.0f ? 1.0f / k : 1.0f;
        for (int64_t j = 0; j < td; ++j) {
          mv[j] = mv[j] * invk;
        }
      }
    }
  }
  // Eq. (5): H = tanh(X-hat ++ M).
  for (float& value : out) {
    value = std::tanh(value);
  }

  return tensor::MakeResultImpl(
      "SumPropagation", inputs, {n, width}, std::move(out),
      [&](tensor::TensorImpl* out_impl) {
        for (const Tensor& in : inputs) {
          tape->in.push_back(in.impl());
        }
        return [tape, out_impl](const std::vector<float>& grad_out) {
          tape->Backward(out_impl->data.data(), grad_out);
        };
      });
}

Tensor TemporalPropagation::EmbedInitial(
    const graph::TemporalGraph& graph) const {
  TPGNN_CHECK(!tensor::GradEnabled())
      << "EmbedInitial is an inference-path entry point";
  TPGNN_CHECK_GT(graph.num_nodes(), 0);
  TPGNN_CHECK_EQ(graph.feature_dim(), config_.feature_dim);
  return embed_.Forward(graph.FeatureMatrix());
}

void TemporalPropagation::PropagateEdgeState(
    Tensor& x, const graph::TemporalEdge& e, double max_time, double prev_time,
    PropagationScratch& scratch) const {
  TPGNN_CHECK(config_.use_temporal_propagation());
  TPGNN_CHECK(plans_ != nullptr);
  // Eq. (3) / Eq. (6), as the compiled edge program. SUM reads src[i] and
  // dst[i] of the same index only, so a self-loop (src aliasing dst) doubles
  // the row exactly like Add; the GRU program stages the message into the
  // arena before touching dst, so self-loops are safe there too.
  const auto params = PlanParams();
  tensor::plan::RunContext ctx;
  ctx.src = RowSpanOf(x, e.src).data;
  ctx.dst = MutableRowSpan(x, e.dst).data;
  if (updater_ != nullptr && time_ != nullptr) {
    ctx.t = static_cast<float>(
        config_.time_basis == TimeBasis::kInvariant
            ? e.time - prev_time
            : NormalizeTime(config_, e.time, max_time));
  }
  scratch.exec.Run(plans_->edge, params.data(), ctx);
}

void TemporalPropagation::AccumulateEdgeTime(
    Tensor& m, const graph::TemporalEdge& e, double max_time,
    PropagationScratch& scratch) const {
  TPGNN_CHECK(has_time_accumulator());
  TPGNN_CHECK(plans_ != nullptr);
  // Eq. (4), as the compiled time program. Invariant basis: the raw-time
  // phasor accumulates into [Σt, k, A.., B..]; max_time is deliberately
  // unread, so a later max move never invalidates this fold (the correction
  // happens in FinalizeState). Absolute basis: m += f(t_norm), optionally
  // squashed. Both associate like ForwardSum's f(t) + M-hat[v].
  const auto params = PlanParams();
  tensor::plan::RunContext ctx;
  ctx.m = MutableRowSpan(m, e.dst).data;
  ctx.t = static_cast<float>(
      config_.time_basis == TimeBasis::kInvariant
          ? e.time
          : NormalizeTime(config_, e.time, max_time));
  scratch.exec.Run(plans_->time, params.data(), ctx);
}

Tensor TemporalPropagation::FinalizeState(const Tensor& x, const Tensor& m,
                                          double max_time) const {
  TPGNN_CHECK(plans_ != nullptr);
  const bool with_time = has_time_accumulator();
  if (with_time) {
    TPGNN_CHECK(m.defined());
  }
  const int64_t n = x.size(0);
  const int64_t time_dim = with_time ? config_.time_dim : 0;
  const bool invariant =
      with_time && config_.time_basis == TimeBasis::kInvariant;

  // Per-call constants for the invariant correction (DESIGN.md §4.3): the
  // linear-channel rescale sf rides in ctx.t, the rotation table
  // [cos(w·T) ++ sin(w·T)] in ctx.aux. Every float expression the finalize
  // program runs mirrors ForwardSum's correction (w0·s + phi0·k for the
  // linear channel, products and a difference against the shared rotation
  // row for the periodic ones), keeping the two paths bit-identical in
  // scalar mode.
  tensor::plan::RunContext ctx;
  std::vector<float> rot;
  if (invariant) {
    const int64_t periodic = time_dim - 1;
    rot.resize(static_cast<size_t>(2 * periodic));
    time_->EvalRotationInto(static_cast<float>(max_time), rot.data(),
                            rot.data() + periodic);
    ctx.aux = rot.data();
    ctx.t = static_cast<float>(
        (config_.normalize_time && max_time > 0.0)
            ? config_.time_scale / max_time
            : 1.0);
  }

  // The finalize program plans no arena temps (it writes the output row
  // directly), so a local executor stays allocation-free.
  Tensor out = Tensor::Zeros({n, config_.embed_dim + time_dim});
  const auto params = PlanParams();
  tensor::plan::PlanExecutor exec;
  for (int64_t v = 0; v < n; ++v) {
    ctx.src = RowSpanOf(x, v).data;
    ctx.dst = MutableRowSpan(out, v).data;
    if (with_time) {
      // The finalize program only reads the accumulator row.
      ctx.m = const_cast<float*>(RowSpanOf(m, v).data);
    }
    exec.Run(plans_->finalize, params.data(), ctx);
  }
  return out;
}

Tensor TemporalPropagation::ForwardInference(
    Tensor x, const std::vector<graph::TemporalEdge>& edge_order,
    double max_time) const {
  // Zero-copy propagation: node state lives in the [n, dim] matrices and is
  // updated in place per edge by the compiled programs, so no per-edge
  // tensors or tape nodes exist. Every program op mirrors the training
  // forward (ForwardSum, or the GRU updater's recorded steps) — bit-identical
  // to it in scalar SIMD mode, kernel-ulp-close otherwise — and serve/'s
  // incremental fold, built on the same steps, is bit-identical to this path
  // in every mode.
  Tensor m;
  if (has_time_accumulator()) {
    m = Tensor::Zeros({x.size(0), time_state_dim()});
  }
  PropagationScratch scratch;
  double prev_time = 0.0;
  for (const graph::TemporalEdge& e : edge_order) {
    PropagateEdgeState(x, e, max_time, prev_time, scratch);
    if (has_time_accumulator()) {
      AccumulateEdgeTime(m, e, max_time, scratch);
    }
    prev_time = e.time;
  }
  return FinalizeState(x, m, max_time);
}

}  // namespace tpgnn::core
