#ifndef TPGNN_NN_OPTIMIZER_H_
#define TPGNN_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

// First-order optimizers. Parameters are Tensor handles aliasing module
// storage; Step() consumes the gradients accumulated by Backward() and
// updates the data in place.

namespace tpgnn::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<tensor::Tensor> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  // Applies one update from the currently accumulated gradients.
  virtual void Step() = 0;

  // Clears gradients of all managed parameters.
  void ZeroGrad();

 protected:
  std::vector<tensor::Tensor> params_;
};

// Adam (Kingma & Ba 2015) with bias correction; the paper trains TP-GNN
// with Adam at lr = 1e-3 (Sec. V-D).
class Adam : public Optimizer {
 public:
  Adam(std::vector<tensor::Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_OPTIMIZER_H_
