#include "nn/optimizer.h"

#include <cmath>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace tpgnn::nn {

Optimizer::Optimizer(std::vector<tensor::Tensor> params)
    : params_(std::move(params)) {
  for (const tensor::Tensor& p : params_) {
    TPGNN_CHECK(p.requires_grad()) << "optimizer parameter lacks gradients";
  }
}

void Optimizer::ZeroGrad() {
  for (tensor::Tensor& p : params_) {
    p.ZeroGrad();
  }
}

Adam::Adam(std::vector<tensor::Tensor> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const tensor::Tensor& p : params_) {
    m_.emplace_back(static_cast<size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<size_t>(p.numel()), 0.0f);
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  // A kernel-table entry: the update is the same on every ISA.
  const tensor::Kernels& kernels = tensor::ActiveKernels();
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    tensor::Tensor& p = params_[pi];
    const std::vector<float>& g = p.grad();
    std::vector<float>& data = p.MutableData();
    kernels.adam_update(data.data(), m_[pi].data(), v_[pi].data(), g.data(),
                        static_cast<int64_t>(data.size()), lr_, beta1_,
                        beta2_, eps_, bias1, bias2);
  }
}

}  // namespace tpgnn::nn
