#ifndef TPGNN_TESTS_TESTING_MAP_SWEEP_H_
#define TPGNN_TESTS_TESTING_MAP_SWEEP_H_

// Runs the four transcendental kernel maps (tensor/kernels.h) over float bit
// patterns and compares two tables. Shared by tensor_kernels_test (a strided
// sweep and the special values) and the full-range tensor_kernels_full_sweep
// program.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/kernels.h"

namespace tpgnn::tensor {

inline constexpr int kNumMaps = 4;
inline constexpr const char* kMapNames[kNumMaps] = {
    "tanh_inplace", "tanh_add", "sigmoid_bias", "gru_candidate"};

// out = map number `map` of table `t` at the n inputs x. The other operands
// are -0 and 1, so each map evaluates its function at exactly x: x + -0 is
// x, and so is 1 * x + (-0 + -0).
inline void RunMap(const Kernels& t, int map, const float* x, int64_t n,
                   float* out) {
  const std::vector<float> neg_zero(static_cast<size_t>(n), -0.0f);
  const std::vector<float> one(static_cast<size_t>(n), 1.0f);
  if (map == 3) {
    t.gru_candidate(out, one.data(), x, neg_zero.data(), neg_zero.data(), n);
    return;
  }
  t.copy(out, x, n);
  if (map == 0) {
    t.tanh_inplace(out, n);
  } else if (map == 1) {
    t.tanh_add(out, neg_zero.data(), n);
  } else {
    t.sigmoid_bias(out, neg_zero.data(), n);
  }
}

struct SweepResult {
  uint64_t inputs = 0;
  uint64_t mismatches = 0;
  uint32_t first_mismatch = 0;  // Its input's bit pattern, if any.
};

// Inputs per map call: 511 full vectors and a 5-lane masked tail.
inline constexpr int64_t kSweepBlock = 4093;

// Every map at the bit patterns begin, begin + stride, ... below end
// (end <= 2^32), `table` against `reference`. An output matches when its
// bits equal the reference's, or both are NaN and so is the input.
inline SweepResult SweepMaps(const Kernels& reference, const Kernels& table,
                             uint64_t begin, uint64_t end, uint64_t stride) {
  SweepResult result;
  std::vector<float> x(kSweepBlock), want(kSweepBlock), got(kSweepBlock);
  for (uint64_t next = begin; next < end;) {
    int64_t n = 0;
    for (; n < kSweepBlock && next < end; ++n, next += stride) {
      x[static_cast<size_t>(n)] =
          std::bit_cast<float>(static_cast<uint32_t>(next));
    }
    for (int map = 0; map < kNumMaps; ++map) {
      RunMap(reference, map, x.data(), n, want.data());
      RunMap(table, map, x.data(), n, got.data());
      for (int64_t i = 0; i < n; ++i) {
        const size_t j = static_cast<size_t>(i);
        const bool same =
            std::isnan(x[j])
                ? std::isnan(want[j]) && std::isnan(got[j])
                : std::bit_cast<uint32_t>(want[j]) ==
                      std::bit_cast<uint32_t>(got[j]);
        if (!same && result.mismatches++ == 0) {
          result.first_mismatch = std::bit_cast<uint32_t>(x[j]);
        }
      }
    }
    result.inputs += static_cast<uint64_t>(n);
  }
  return result;
}

}  // namespace tpgnn::tensor

#endif  // TPGNN_TESTS_TESTING_MAP_SWEEP_H_
