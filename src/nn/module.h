#ifndef TPGNN_NN_MODULE_H_
#define TPGNN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

// Base class for neural-network modules: owns named parameters, supports
// hierarchical composition, and exposes a flat parameter list for optimizers.

namespace tpgnn::nn {

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All trainable parameters of this module and registered children,
  // depth-first. The returned tensors alias module storage, so an optimizer
  // can update them in place.
  std::vector<tensor::Tensor> Parameters() const;

  // Named variants, with child parameters prefixed "child/".
  std::vector<std::pair<std::string, tensor::Tensor>> NamedParameters() const;

  // Total number of scalar parameters.
  int64_t ParameterCount() const;

 protected:
  // Registers a trainable parameter; `value` must be a leaf tensor. The
  // registered tensor has requires_grad forced on. Returns the stored handle.
  tensor::Tensor RegisterParameter(std::string name, tensor::Tensor value);

  // Registers a child whose parameters are included in Parameters(). The
  // child must outlive this module (typically a member).
  void RegisterChild(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, tensor::Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_MODULE_H_
