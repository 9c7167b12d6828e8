#ifndef TPGNN_NN_TIME_ENCODING_H_
#define TPGNN_NN_TIME_ENCODING_H_


#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tpgnn::nn {

// Time2Vec (Kazemi et al. 2019), Eq. (2) of the TP-GNN paper:
//   f(t) = (w0 * t + phi0) ++ sin(w * t + phi)
// The first output coordinate is linear in t; the remaining dim-1 are
// periodic.
class Time2Vec : public Module {
 public:
  Time2Vec(int64_t dim, Rng& rng);

  // Encodes a single timestamp -> [dim].
  tensor::Tensor Forward(float t) const;

  // Raw encoding into out[0..dim) for the zero-copy inference path; computes
  // the same expressions as Forward(float) elementwise, so the values are
  // bit-identical. No autograd, no allocation.
  void EvalInto(float t, float* out) const;

  // Parameter views for the propagation steps
  // (core::TemporalPropagation), which run the time-encoding kernels on
  // the same parameters Forward reads.
  const tensor::Tensor& w0() const { return w0_; }
  const tensor::Tensor& phi0() const { return phi0_; }
  const tensor::Tensor& w() const { return w_; }
  const tensor::Tensor& phi() const { return phi_; }

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  tensor::Tensor w0_;    // [1]
  tensor::Tensor phi0_;  // [1]
  tensor::Tensor w_;     // [dim - 1]
  tensor::Tensor phi_;   // [dim - 1]
};

// Bochner-theorem functional time encoding used by TGAT (Xu et al. 2020):
//   f(t) = sqrt(1/dim) * cos(w * t + phi)
class BochnerTimeEncoding : public Module {
 public:
  BochnerTimeEncoding(int64_t dim, Rng& rng);

  tensor::Tensor Forward(float t) const;  // -> [dim]

  int64_t dim() const { return dim_; }

 private:
  int64_t dim_;
  tensor::Tensor w_;    // [dim]
  tensor::Tensor phi_;  // [dim]
};

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_TIME_ENCODING_H_
