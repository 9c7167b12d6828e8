#include "tensor/gemm.h"

#include "tensor/kernels.h"

// The three GEMM-accumulate entry points are thin wrappers over the
// runtime-dispatched kernel table (tensor/kernels.h): exactly one blocked
// implementation exists per ISA, and every caller — the recorded ops'
// forward/backward, the fused training ops and the zero-copy inference paths
// — goes through the same dispatch. Every GEMM kernel is bitwise equal to the
// scalar one, so training numerics are identical in every SIMD mode.

namespace tpgnn::tensor::internal {

void GemmAccumulate(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m) {
  ActiveKernels().gemm_accumulate(a, b, c, n, k, m);
}

void GemmAccumulateNT(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m) {
  ActiveKernels().gemm_accumulate_nt(a, b, c, n, k, m);
}

void GemmAccumulateTN(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m) {
  ActiveKernels().gemm_accumulate_tn(a, b, c, n, k, m);
}

}  // namespace tpgnn::tensor::internal
