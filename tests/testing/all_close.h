#ifndef TPGNN_TESTS_TESTING_ALL_CLOSE_H_
#define TPGNN_TESTS_TESTING_ALL_CLOSE_H_

#include <cmath>
#include <cstddef>

#include "tensor/tensor.h"

namespace tpgnn::tensor {

// True when |a - b| <= atol + rtol * |b| elementwise (shapes must match).
inline bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
                     float rtol = 1e-4f) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float av = a.data()[static_cast<size_t>(i)];
    const float bv = b.data()[static_cast<size_t>(i)];
    if (std::abs(av - bv) > atol + rtol * std::abs(bv)) return false;
  }
  return true;
}

}  // namespace tpgnn::tensor

#endif  // TPGNN_TESTS_TESTING_ALL_CLOSE_H_
