#ifndef TPGNN_TENSOR_GEMM_H_
#define TPGNN_TENSOR_GEMM_H_

#include <cstdint>

// Row-major GEMM-accumulate kernels shared by the differentiable ops
// (MatMul/Affine/Affine2, forward and backward) and by the zero-copy
// inference paths (the global extractor's sweep, core propagation). Keeping
// one set of kernels guarantees the training and inference forward passes
// produce bit-identical values.

namespace tpgnn::tensor::internal {

// C += A x B (C [n, m], A [n, k], B [k, m]).
void GemmAccumulate(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m);

// C += A x B^T (C [n, k], A [n, m], B [k, m]); the dA backward GEMM.
void GemmAccumulateNT(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m);

// C += A^T x B (C [k, m], A [n, k], B [n, m]); the dB backward GEMM.
void GemmAccumulateTN(const float* a, const float* b, float* c, int64_t n,
                      int64_t k, int64_t m);

}  // namespace tpgnn::tensor::internal

#endif  // TPGNN_TENSOR_GEMM_H_
