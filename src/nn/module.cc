#include "nn/module.h"

#include "util/logging.h"

namespace tpgnn::nn {

std::vector<tensor::Tensor> Module::Parameters() const {
  std::vector<tensor::Tensor> out;
  for (const auto& [name, p] : params_) {
    out.push_back(p);
  }
  for (const auto& [name, child] : children_) {
    for (const tensor::Tensor& p : child->Parameters()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<std::pair<std::string, tensor::Tensor>> Module::NamedParameters()
    const {
  std::vector<std::pair<std::string, tensor::Tensor>> out;
  for (const auto& [name, p] : params_) {
    out.emplace_back(name, p);
  }
  for (const auto& [child_name, child] : children_) {
    for (const auto& [name, p] : child->NamedParameters()) {
      out.emplace_back(child_name + "/" + name, p);
    }
  }
  return out;
}

int64_t Module::ParameterCount() const {
  int64_t count = 0;
  for (const tensor::Tensor& p : Parameters()) {
    count += p.numel();
  }
  return count;
}

tensor::Tensor Module::RegisterParameter(std::string name,
                                         tensor::Tensor value) {
  TPGNN_CHECK(value.impl()->grad_fn == nullptr)
      << "parameters must be leaf tensors: " << name;
  value.set_requires_grad(true);
  params_.emplace_back(std::move(name), value);
  return params_.back().second;
}

void Module::RegisterChild(std::string name, Module* child) {
  TPGNN_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace tpgnn::nn
