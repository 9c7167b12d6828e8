#include "core/temporal_propagation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "tensor/executor.h"
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

PropagationScratch::PropagationScratch(const TpGnnConfig& config) {
  const int64_t d = config.embed_dim;
  const int64_t td = config.time_dim;
  const int64_t gru = config.updater == Updater::kGru ? (d + td) + 5 * d : 0;
  buffer_.resize(static_cast<size_t>(gru + 4 * td));
  float* next = buffer_.data();
  const auto take = [&next](int64_t floats) {
    float* row = next;
    next += floats;
    return row;
  };
  if (gru > 0) {
    message_ = take(d + td);
    for (float** row : {&z_, &r_, &xn_, &hu_, &n_}) *row = take(d);
  }
  time_ = take(2 * td);
  rotation_ = take(2 * td);
  tensor::plan::AddArenaBytes(buffer_.size() * sizeof(float));
}

PropagationScratch::~PropagationScratch() {
  tensor::plan::ReleaseArenaBytes(buffer_.size() * sizeof(float));
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
    // Inference readout goes through FinalizeState so offline scores match
    // serving bitwise in every SIMD mode (scalar tanh is libm there too, so
    // scalar mode also matches this recorded path bitwise).
    if (!tensor::GradEnabled()) {
      PropagationScratch scratch(config_);
      return FinalizeState(x, Tensor(), /*max_time=*/0.0, scratch);
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
  // The folded time accumulator [n, time_state_dim]. The invariant sweep
  // reads its rows [Σt, k, A_1..A_{td-1}, B_1..B_{td-1}], the rotation table
  // [cos(w T) ++ sin(w T)], the linear channel's rescale and the max time.
  std::vector<float> acc, rot;
  float sf = 1.0f;
  float tmax = 0.0f;

  ~SumTape() {
    for (std::vector<float>* buffer : {&t, &xsteps, &msteps, &acc, &rot}) {
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
    const float* rot_cos = rot.data();
    const float* rot_sin = rot.data() + p;
    for (int64_t v = 0; v < n; ++v) {
      float* gm = g + v * width + e;
      const float* mv = acc.data() + v * 2 * td;
      const float* psin = mv + 2;
      const float* pcos = mv + td + 1;
      const float k = mv[1];
      if (stabilize) {
        const float invk = k > 0.0f ? 1.0f / k : 1.0f;
        for (int64_t j = 0; j < td; ++j) {
          gm[j] = invk * gm[j];
        }
      }
      dw0 += (mv[0] * sf) * gm[0];
      dphi0 += k * gm[0];
      for (int64_t j = 0; j < p; ++j) {
        const size_t vj = static_cast<size_t>(v * p + j);
        dps[vj] = rot_cos[j] * gm[1 + j];
        dpc[vj] = -(rot_sin[j] * gm[1 + j]);
        drc[static_cast<size_t>(j)] += psin[j] * gm[1 + j];
        drs[static_cast<size_t>(j)] -= pcos[j] * gm[1 + j];
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
  const tensor::Kernels& ker = tensor::TrainingKernels();
  auto tape = std::make_shared<SumTape>();
  SumTape& s = *tape;
  const int64_t n = x.size(0);
  const int64_t e = config_.embed_dim;
  const int64_t td = time_ != nullptr ? config_.time_dim : 0;
  const int64_t sd = td > 0 ? time_state_dim() : 0;
  const int64_t width = e + td;
  const int64_t m = static_cast<int64_t>(edge_order.size());
  const bool stabilize = config_.stabilize_sum;
  s.n = n;
  s.e = e;
  s.td = td;
  s.width = width;
  s.stabilize = stabilize;
  s.invariant = invariant();

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
        s.invariant ? edge.time : NormalizeTime(config_, edge.time, max_time));
  }
  if (record && stabilize) {
    s.xsteps = util::AcquireBuffer(static_cast<size_t>(m * e));
    if (td > 0 && !s.invariant) {
      s.msteps = util::AcquireBuffer(static_cast<size_t>(m * td));
    }
  }

  // The fold runs the steps serving runs, on the training table: X-hat
  // [n, e] and the accumulator [n, sd] advance per edge, then one readout
  // row per node.
  std::vector<float> xs = util::AcquireBuffer(static_cast<size_t>(n * e));
  const float* xd = x.data().data();
  std::copy(xd, xd + n * e, xs.begin());
  s.acc = util::AcquireBuffer(static_cast<size_t>(n * sd));
  PropagationScratch scratch(config_);
  for (int64_t i = 0; i < m; ++i) {
    const int64_t v = s.dst[static_cast<size_t>(i)];
    float* xv = xs.data() + v * e;
    SumEdgeStep(ker, xs.data() + s.src[static_cast<size_t>(i)] * e, xv);
    if (!s.xsteps.empty()) {
      std::copy(xv, xv + e, s.xsteps.data() + i * e);
    }
    if (td > 0) {
      float* mv = s.acc.data() + v * sd;
      TimeStep(ker, s.t[static_cast<size_t>(i)], mv, scratch);
      if (!s.msteps.empty()) {
        std::copy(mv, mv + td, s.msteps.data() + i * td);
      }
    }
  }
  if (s.invariant) {
    s.rot = util::AcquireBuffer(static_cast<size_t>(2 * (td - 1)));
    s.sf = InvariantCorrection(ker, max_time, s.rot.data());
    s.tmax = static_cast<float>(max_time);
  }
  std::vector<float> out = util::AcquireBuffer(static_cast<size_t>(n * width));
  for (int64_t v = 0; v < n; ++v) {
    FinalizeRow(ker, xs.data() + v * e,
                td > 0 ? s.acc.data() + v * sd : nullptr,
                s.rot.data(), s.sf, out.data() + v * width);
  }
  util::ReleaseBuffer(std::move(xs));

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

void TemporalPropagation::SumEdgeStep(const tensor::Kernels& ker,
                                      const float* src, float* dst) const {
  // Elementwise over the same index, so src may alias dst.
  if (config_.stabilize_sum) {
    ker.tanh_add(dst, src, config_.embed_dim);
  } else {
    ker.add_accumulate(dst, src, config_.embed_dim);
  }
}

void TemporalPropagation::TimeStep(const tensor::Kernels& ker, float t,
                                   float* m,
                                   PropagationScratch& scratch) const {
  const int64_t td = config_.time_dim;
  const float* w = time_->w().data().data();
  const float* phi = time_->phi().data().data();
  float* enc = scratch.time_;
  if (invariant()) {
    // Raw-time phasor into [Σt, k, A.., B..]; max_time is never read, so a
    // later max move never invalidates this fold. Stabilization becomes the
    // mean at readout: a per-step squash would break the rotation identity.
    const int64_t p = td - 1;
    ker.phasor(enc, enc + p, t, w, phi, p);
    m[0] = t + m[0];
    m[1] = 1.0f + m[1];
    ker.add_accumulate(m + 2, enc, p);
    ker.add_accumulate(m + td + 1, enc + p, p);
    return;
  }
  ker.time2vec(enc, t, time_->w0().data().data(), time_->phi0().data().data(),
               w, phi, td);
  if (config_.stabilize_sum) {
    ker.tanh_add(m, enc, td);
  } else {
    ker.add_accumulate(m, enc, td);
  }
}

float TemporalPropagation::InvariantCorrection(const tensor::Kernels& ker,
                                               double max_time,
                                               float* rotation) const {
  // DESIGN.md §4.3: rotating the phasor sums by w·T makes row v read
  // Σ sin(w (t − T) + phi); the linear channel rescales by time_scale / T.
  const int64_t p = config_.time_dim - 1;
  ker.rotation(rotation, rotation + p, static_cast<float>(max_time),
               time_->w().data().data(), p);
  return static_cast<float>((config_.normalize_time && max_time > 0.0)
                                ? config_.time_scale / max_time
                                : 1.0);
}

void TemporalPropagation::FinalizeRow(const tensor::Kernels& ker,
                                      const float* x, const float* m,
                                      const float* rotation, float sf,
                                      float* out) const {
  const int64_t d = config_.embed_dim;
  ker.copy(out, x, d);
  if (!has_time_accumulator()) {
    ker.tanh_inplace(out, d);
    return;
  }
  const int64_t td = config_.time_dim;
  if (!invariant()) {
    ker.copy(out + d, m, td);
  } else {
    // Linear channel w0·(Σt·sf) + phi0·k, each product rounded, then the
    // phasor rotation (A·cos) − (B·sin), then the mean under stabilize_sum.
    const int64_t p = td - 1;
    const float lin_w = time_->w0().data()[0] * (m[0] * sf);
    const float lin_p = time_->phi0().data()[0] * m[1];
    out[d] = lin_w + lin_p;
    ker.rotate_pairs(out + d + 1, m + 2, m + td + 1, rotation, rotation + p,
                     p);
    if (config_.stabilize_sum) {
      ker.scale_inplace(out + d, m[1] > 0.0f ? 1.0f / m[1] : 1.0f, td);
    }
  }
  ker.tanh_inplace(out, d + td);
}

void TemporalPropagation::PropagateEdgeState(
    Tensor& x, const graph::TemporalEdge& e, double max_time, double prev_time,
    PropagationScratch& scratch) const {
  TPGNN_CHECK(config_.use_temporal_propagation());
  const tensor::Kernels& ker = tensor::ActiveKernels();
  const float* src = RowSpanOf(x, e.src).data;
  float* dst = MutableRowSpan(x, e.dst).data;
  if (updater_ == nullptr) {
    SumEdgeStep(ker, src, dst);
    return;
  }
  // Eq. (6): dst <- GRU(dst, [src ++ f(t)]), as one-row projections and the
  // shared GruCell::Step. The message is staged before dst is written, so a
  // self-loop reads the old row.
  const int64_t d = config_.embed_dim;
  float* message = scratch.message_;
  ker.copy(message, src, d);
  if (time_ != nullptr) {
    const float t = static_cast<float>(
        invariant() ? e.time - prev_time
                    : NormalizeTime(config_, e.time, max_time));
    ker.time2vec(message + d, t, time_->w0().data().data(),
                 time_->phi0().data().data(), time_->w().data().data(),
                 time_->phi().data().data(), config_.time_dim);
  }
  float* z = scratch.z_;
  float* r = scratch.r_;
  float* xn = scratch.xn_;
  ker.zero(z, d);
  ker.zero(r, d);
  ker.zero(xn, d);
  updater_->ProjectInputs(ker, message, 1, z, r, xn);
  updater_->Step(ker, dst, z, r, xn, scratch.hu_, scratch.n_, dst);
}

void TemporalPropagation::AccumulateEdgeTime(
    Tensor& m, const graph::TemporalEdge& e, double max_time,
    PropagationScratch& scratch) const {
  TPGNN_CHECK(has_time_accumulator());
  TimeStep(tensor::ActiveKernels(),
           static_cast<float>(invariant()
                                  ? e.time
                                  : NormalizeTime(config_, e.time, max_time)),
           MutableRowSpan(m, e.dst).data, scratch);
}

Tensor TemporalPropagation::FinalizeState(const Tensor& x, const Tensor& m,
                                          double max_time,
                                          PropagationScratch& scratch) const {
  const bool with_time = has_time_accumulator();
  if (with_time) {
    TPGNN_CHECK(m.defined());
  }
  const tensor::Kernels& ker = tensor::ActiveKernels();
  const int64_t n = x.size(0);
  float* rotation = scratch.rotation_;
  const float sf = with_time && invariant()
                       ? InvariantCorrection(ker, max_time, rotation)
                       : 1.0f;
  Tensor out = Tensor::Zeros(
      {n, config_.embed_dim + (with_time ? config_.time_dim : 0)});
  for (int64_t v = 0; v < n; ++v) {
    FinalizeRow(ker, RowSpanOf(x, v).data,
                with_time ? RowSpanOf(m, v).data : nullptr, rotation, sf,
                MutableRowSpan(out, v).data);
  }
  return out;
}

Tensor TemporalPropagation::ForwardInference(
    Tensor x, const std::vector<graph::TemporalEdge>& edge_order,
    double max_time) const {
  // Zero-copy propagation: node state lives in the [n, dim] matrices and is
  // updated in place per edge by the single-edge API, so no per-edge tensors
  // or tape nodes exist. serve/'s incremental fold makes the same calls, so
  // it is bit-identical to this path in every mode.
  Tensor m;
  if (has_time_accumulator()) {
    m = Tensor::Zeros({x.size(0), time_state_dim()});
  }
  PropagationScratch scratch(config_);
  double prev_time = 0.0;
  for (const graph::TemporalEdge& e : edge_order) {
    PropagateEdgeState(x, e, max_time, prev_time, scratch);
    if (has_time_accumulator()) {
      AccumulateEdgeTime(m, e, max_time, scratch);
    }
    prev_time = e.time;
  }
  return FinalizeState(x, m, max_time, scratch);
}

}  // namespace tpgnn::core
