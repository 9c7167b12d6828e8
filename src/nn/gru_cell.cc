#include "nn/gru_cell.h"

#include <array>
#include <memory>
#include <utility>

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/buffer_pool.h"
#include "util/logging.h"

namespace tpgnn::nn {

using tensor::Affine;
using tensor::Affine2;
using tensor::GruBlend;
using tensor::MatMul;
using tensor::MulAdd;
using tensor::Sigmoid;
using tensor::Tanh;
using tensor::Tensor;

namespace {

// out [cols, rows] = a [rows, cols] transposed.
void TransposeInto(const float* a, int64_t rows, int64_t cols, float* out) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out[j * rows + i] = a[i * cols + j];
    }
  }
}

// out[j] += sum over rows of a[row][j], a [rows, cols]: the bias gradient.
void AddColumnSums(const float* a, int64_t rows, int64_t cols, float* out) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out[j] += a[i * cols + j];
    }
  }
}

// What ForwardSequence saves for its reverse sweep. The buffers come from
// the tensor buffer pool and go back when the tape drops the closure.
struct GruSequenceTape {
  int64_t m = 0;  // Steps.
  int64_t k = 0;  // Input width.
  int64_t d = 0;  // Hidden width.
  bool mean = false;
  // The op's inputs in order: xs, wz, uz, bz, wr, ur, br, wn, un, bn.
  std::array<std::shared_ptr<tensor::TensorImpl>, 10> in;
  // [m + 1, d]: row 0 is the zero initial state, row i + 1 the state after
  // step i.
  std::vector<float> h;
  // [m, d] each, per step: update gate, reset gate, h·Un, candidate.
  std::vector<float> z, r, hu, n;

  ~GruSequenceTape() {
    for (std::vector<float>* buffer : {&h, &z, &r, &hu, &n}) {
      util::ReleaseBuffer(std::move(*buffer));
    }
  }

  void Backward(const std::vector<float>& grad_out) const;
};

void GruSequenceTape::Backward(const std::vector<float>& grad_out) const {
  const tensor::Kernels& ker = tensor::ActiveKernels();
  const auto data = [this](int i) {
    return in[static_cast<size_t>(i)]->data.data();
  };
  // Recurrent weights transposed once and stacked, rows [0, d) Uzᵀ,
  // [d, 2d) Urᵀ, [2d, 3d) Unᵀ, so dL/dh_{i-1} takes one GEMM per step.
  std::vector<float> ut = util::AcquireBuffer(static_cast<size_t>(3 * d * d));
  TransposeInto(data(2), d, d, ut.data());
  TransposeInto(data(5), d, d, ut.data() + d * d);
  TransposeInto(data(8), d, d, ut.data() + 2 * d * d);
  // Per-step gradients of the z and r pre-activations, of h·Un and of the
  // candidate pre-activation (which is also dL/d(x·Wn + bn)).
  std::vector<float> daz = util::AcquireBuffer(static_cast<size_t>(m * d));
  std::vector<float> dar = util::AcquireBuffer(static_cast<size_t>(m * d));
  std::vector<float> dhu = util::AcquireBuffer(static_cast<size_t>(m * d));
  std::vector<float> dan = util::AcquireBuffer(static_cast<size_t>(m * d));
  // dL/dh of the state step i wrote, and of the one it read.
  std::vector<float> dh_buf = util::AcquireBuffer(static_cast<size_t>(2 * d));
  std::vector<float> g3 = util::AcquireBuffer(static_cast<size_t>(3 * d));
  float* dh = dh_buf.data();
  float* dh_prev = dh + d;
  const float* g = grad_out.data();
  if (!mean) {
    std::copy(g, g + d, dh);
  }
  const float scale = 1.0f / static_cast<float>(m);
  for (int64_t i = m - 1; i >= 0; --i) {
    const float* hp = h.data() + i * d;
    const float* zi = z.data() + i * d;
    const float* ri = r.data() + i * d;
    const float* hui = hu.data() + i * d;
    const float* ni = n.data() + i * d;
    float* dazi = daz.data() + i * d;
    float* dari = dar.data() + i * d;
    float* dhui = dhu.data() + i * d;
    float* dani = dan.data() + i * d;
    float* gz = g3.data();
    float* gr = gz + d;
    float* ghu = gr + d;
    for (int64_t j = 0; j < d; ++j) {
      if (mean) dh[j] += scale * g[j];  // The readout's share of step i.
      // h' = z*h + (1 - z)*n.
      const float dz = (hp[j] - ni[j]) * dh[j];
      const float dn = (1.0f - zi[j]) * dh[j];
      dh_prev[j] = zi[j] * dh[j];
      // n = tanh(r*hu + (x·Wn + bn)); z and r are sigmoids.
      dani[j] = (1.0f - ni[j] * ni[j]) * dn;
      ghu[j] = dhui[j] = ri[j] * dani[j];
      gr[j] = dari[j] = ri[j] * (1.0f - ri[j]) * (hui[j] * dani[j]);
      gz[j] = dazi[j] = zi[j] * (1.0f - zi[j]) * dz;
    }
    ker.gemm_accumulate(g3.data(), ut.data(), dh_prev, 1, 3 * d, d);
    std::swap(dh, dh_prev);
  }

  // dX and the parameter gradients, each one GEMM (or column sum) over
  // every step: dX += dA·Wᵀ per gate, with W transposed once here; W and b
  // take the rows dA, U takes dL/d(h·U) against the states the steps read
  // (rows 0..m-1 of h).
  const auto grad = [this](int i) -> float* {
    tensor::TensorImpl& impl = *in[static_cast<size_t>(i)];
    return impl.requires_grad ? tensor::GradBufferFor(impl).data() : nullptr;
  };
  float* dx = grad(0);
  std::vector<float> wt =
      util::AcquireBuffer(dx != nullptr ? static_cast<size_t>(d * k) : 0);
  const float* x = data(0);
  const struct {
    const float* da;  // Rows of dL/d(x·W + b).
    const float* du;  // Rows of dL/d(h·U).
    int w, u, b;      // Input indices.
  } gates[] = {{daz.data(), daz.data(), 1, 2, 3},
               {dar.data(), dar.data(), 4, 5, 6},
               {dan.data(), dhu.data(), 7, 8, 9}};
  for (const auto& gate : gates) {
    if (dx != nullptr) {
      TransposeInto(data(gate.w), k, d, wt.data());
      ker.gemm_accumulate(gate.da, wt.data(), dx, m, d, k);
    }
    if (float* gw = grad(gate.w)) {
      ker.gemm_accumulate_tn(x, gate.da, gw, m, k, d);
    }
    if (float* gu = grad(gate.u)) {
      ker.gemm_accumulate_tn(h.data(), gate.du, gu, m, d, d);
    }
    if (float* gb = grad(gate.b)) {
      AddColumnSums(gate.da, m, d, gb);
    }
  }
  for (std::vector<float>* buffer :
       {&ut, &daz, &dar, &dhu, &dan, &dh_buf, &g3, &wt}) {
    util::ReleaseBuffer(std::move(*buffer));
  }
}

}  // namespace

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  TPGNN_CHECK_GT(input_size, 0);
  TPGNN_CHECK_GT(hidden_size, 0);
  auto w = [&]() {
    return ScaledUniform({input_size, hidden_size}, hidden_size, rng);
  };
  auto u = [&]() {
    return ScaledUniform({hidden_size, hidden_size}, hidden_size, rng);
  };
  auto b = [&]() { return ScaledUniform({hidden_size}, hidden_size, rng); };
  wz_ = RegisterParameter("wz", w());
  uz_ = RegisterParameter("uz", u());
  bz_ = RegisterParameter("bz", b());
  wr_ = RegisterParameter("wr", w());
  ur_ = RegisterParameter("ur", u());
  br_ = RegisterParameter("br", b());
  wn_ = RegisterParameter("wn", w());
  un_ = RegisterParameter("un", u());
  bn_ = RegisterParameter("bn", b());
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  TPGNN_CHECK_EQ(x.dim(), 2);
  TPGNN_CHECK_EQ(h.dim(), 2);
  TPGNN_CHECK_EQ(x.size(1), input_size_);
  TPGNN_CHECK_EQ(h.size(1), hidden_size_);
  TPGNN_CHECK_EQ(x.size(0), h.size(0));

  Tensor z = Sigmoid(Affine2(x, wz_, h, uz_, bz_));
  Tensor r = Sigmoid(Affine2(x, wr_, h, ur_, br_));
  Tensor n = Tanh(MulAdd(r, MatMul(h, un_), Affine(x, wn_, bn_)));
  return GruBlend(z, h, n);
}

Tensor GruCell::ForwardSequence(const Tensor& xs,
                                SequenceReadout readout) const {
  TPGNN_CHECK_EQ(xs.dim(), 2);
  TPGNN_CHECK_EQ(xs.size(1), input_size_);
  const int64_t m = xs.size(0);
  TPGNN_CHECK_GT(m, 0);
  const int64_t k = input_size_;
  const int64_t d = hidden_size_;
  const tensor::Kernels& ker = tensor::ActiveKernels();
  auto tape = std::make_shared<GruSequenceTape>();
  tape->m = m;
  tape->k = k;
  tape->d = d;
  tape->mean = readout == SequenceReadout::kMeanState;
  tape->h = util::AcquireBuffer(static_cast<size_t>((m + 1) * d));
  tape->z = util::AcquireBuffer(static_cast<size_t>(m * d));
  tape->r = util::AcquireBuffer(static_cast<size_t>(m * d));
  tape->hu = util::AcquireBuffer(static_cast<size_t>(m * d));
  tape->n = util::AcquireBuffer(static_cast<size_t>(m * d));
  std::vector<float> xn = util::AcquireBuffer(static_cast<size_t>(m * d));

  // Every step's input projections at once, straight into the tape's gate
  // rows, then one Step per row: Step leaves the gates, h·Un and the
  // candidate in the rows the reverse sweep reads.
  ProjectInputs(ker, xs.data().data(), m, tape->z.data(), tape->r.data(),
                xn.data());
  std::vector<float> out = util::AcquireBuffer(static_cast<size_t>(d));
  for (int64_t i = 0; i < m; ++i) {
    const float* h = tape->h.data() + i * d;
    float* next = tape->h.data() + (i + 1) * d;
    Step(ker, h, tape->z.data() + i * d, tape->r.data() + i * d,
         xn.data() + i * d, tape->hu.data() + i * d, tape->n.data() + i * d,
         next);
    if (tape->mean) {
      // Concat + MeanAxis(0): sum in step order, scale once below.
      ker.add_accumulate(out.data(), next, d);
    }
  }
  util::ReleaseBuffer(std::move(xn));
  if (tape->mean) {
    ker.scale_inplace(out.data(), 1.0f / static_cast<float>(m), d);
  } else {
    const float* last = tape->h.data() + m * d;
    std::copy(last, last + d, out.begin());
  }

  const std::array<Tensor, 10> inputs = {xs,  wz_, uz_, bz_, wr_,
                                         ur_, br_, wn_, un_, bn_};
  return tensor::MakeResultImpl(
      "GruSequence", inputs, {d}, std::move(out), [&]() {
        for (size_t i = 0; i < inputs.size(); ++i) {
          tape->in[i] = inputs[i].impl();
        }
        return [tape](const std::vector<float>& grad_out) {
          tape->Backward(grad_out);
        };
      });
}

void GruCell::ProjectInputs(const tensor::Kernels& ker, const float* x,
                            int64_t rows, float* z, float* r,
                            float* xn) const {
  const int64_t k = input_size_;
  const int64_t d = hidden_size_;
  ker.gemm_accumulate(x, wz_.data().data(), z, rows, k, d);
  ker.gemm_accumulate(x, wr_.data().data(), r, rows, k, d);
  ker.gemm_accumulate(x, wn_.data().data(), xn, rows, k, d);
}

void GruCell::Step(const tensor::Kernels& ker, const float* h, float* z,
                   float* r, const float* xn, float* hu, float* n,
                   float* out) const {
  const int64_t d = hidden_size_;
  // Sigmoid(Affine2(x, W, h, U, b)): x·W is already in the row, h·U adds to
  // it, the bias and the sigmoid come last.
  ker.gemm_accumulate(h, uz_.data().data(), z, 1, d, d);
  ker.sigmoid_bias(z, bz_.data().data(), d);
  ker.gemm_accumulate(h, ur_.data().data(), r, 1, d, d);
  ker.sigmoid_bias(r, br_.data().data(), d);
  // Tanh(MulAdd(r, MatMul(h, Un), Affine(x, Wn, bn))).
  ker.zero(hu, d);
  ker.gemm_accumulate(h, un_.data().data(), hu, 1, d, d);
  ker.gru_candidate(n, r, hu, xn, bn_.data().data(), d);
  // GruBlend reads h[j] before writing out[j], so out may alias h.
  ker.gru_blend(out, z, h, n, d);
}

}  // namespace tpgnn::nn
