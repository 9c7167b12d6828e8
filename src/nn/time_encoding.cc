#include "nn/time_encoding.h"

#include <cmath>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace tpgnn::nn {

using tensor::AddScalar;
using tensor::Concat;
using tensor::Cos;
using tensor::Scale;
using tensor::Sin;
using tensor::Tensor;

Time2Vec::Time2Vec(int64_t dim, Rng& rng) : dim_(dim) {
  TPGNN_CHECK_GE(dim, 2) << "Time2Vec needs a linear plus >=1 periodic dim";
  w0_ = RegisterParameter("w0", Tensor::Uniform({1}, -1.0f, 1.0f, rng));
  phi0_ = RegisterParameter("phi0", Tensor::Uniform({1}, -1.0f, 1.0f, rng));
  w_ = RegisterParameter("w", Tensor::Uniform({dim - 1}, 0.0f, 1.0f, rng));
  phi_ = RegisterParameter(
      "phi", Tensor::Uniform({dim - 1}, 0.0f, 2.0f * static_cast<float>(M_PI),
                             rng));
}

Tensor Time2Vec::Forward(float t) const {
  Tensor linear = tensor::Add(Scale(w0_, t), phi0_);
  Tensor periodic = Sin(tensor::Add(Scale(w_, t), phi_));
  return Concat({linear, periodic}, /*axis=*/0);
}

// The raw fast path runs the dispatched time2vec kernel (tensor/kernels.h),
// which is in the bitwise parity class on every ISA — the phase w*t + phi
// keeps the recorded Sin(Add(Scale(w, t), phi)) chain's two-step rounding
// and sin stays libm — so it stays bit-identical to Forward in every SIMD
// mode.
void Time2Vec::EvalInto(float t, float* out) const {
  tensor::ActiveKernels().time2vec(out, t, w0_.data().data(),
                                   phi0_.data().data(), w_.data().data(),
                                   phi_.data().data(), dim_);
}

BochnerTimeEncoding::BochnerTimeEncoding(int64_t dim, Rng& rng) : dim_(dim) {
  TPGNN_CHECK_GE(dim, 1);
  w_ = RegisterParameter("w", Tensor::Uniform({dim}, 0.0f, 1.0f, rng));
  phi_ = RegisterParameter(
      "phi",
      Tensor::Uniform({dim}, 0.0f, 2.0f * static_cast<float>(M_PI), rng));
}

Tensor BochnerTimeEncoding::Forward(float t) const {
  const float scale = std::sqrt(1.0f / static_cast<float>(dim_));
  return Scale(Cos(tensor::Add(Scale(w_, t), phi_)), scale);
}

}  // namespace tpgnn::nn
