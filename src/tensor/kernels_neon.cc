// NEON kernel table (DESIGN.md §4.6), compiled only on ARM targets with
// Advanced SIMD. NEON covers GEMM and the linear elementwise kernels with
// 4-lane vmul/vadd sequences matching the scalar association exactly (no
// vfma, and the TU builds with -ffp-contract=off so the compiler adds none,
// same reason the AVX2 table avoids FMA). The transcendental maps, the
// time-encoding kernels and the Adam update delegate to the scalar table, so
// they equal the reference by construction.

#include "tensor/kernels.h"

#include "util/logging.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

#include <cstring>

namespace tpgnn::tensor {
namespace {

void GemmAccumulateNeon(const float* a, const float* b, float* c, int64_t n,
                        int64_t k, int64_t m) {
  constexpr int64_t kTile = 4;
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    int64_t kk = 0;
    for (; kk + kTile <= k; kk += kTile) {
      const float a0 = arow[kk];
      const float a1 = arow[kk + 1];
      const float a2 = arow[kk + 2];
      const float a3 = arow[kk + 3];
      if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
      const float* b0 = b + kk * m;
      const float* b1 = b0 + m;
      const float* b2 = b1 + m;
      const float* b3 = b2 + m;
      const float32x4_t va0 = vdupq_n_f32(a0);
      const float32x4_t va1 = vdupq_n_f32(a1);
      const float32x4_t va2 = vdupq_n_f32(a2);
      const float32x4_t va3 = vdupq_n_f32(a3);
      int64_t j = 0;
      for (; j + 4 <= m; j += 4) {
        float32x4_t sum = vmulq_f32(va0, vld1q_f32(b0 + j));
        sum = vaddq_f32(sum, vmulq_f32(va1, vld1q_f32(b1 + j)));
        sum = vaddq_f32(sum, vmulq_f32(va2, vld1q_f32(b2 + j)));
        sum = vaddq_f32(sum, vmulq_f32(va3, vld1q_f32(b3 + j)));
        vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), sum));
      }
      for (; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * m;
      const float32x4_t vav = vdupq_n_f32(av);
      int64_t j = 0;
      for (; j + 4 <= m; j += 4) {
        const float32x4_t prod = vmulq_f32(vav, vld1q_f32(brow + j));
        vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), prod));
      }
      for (; j < m; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void GemmAccumulateNTNeon(const float* a, const float* b, float* c, int64_t n,
                          int64_t k, int64_t m) {
  ScalarKernels().gemm_accumulate_nt(a, b, c, n, k, m);
}

void GemmAccumulateTNNeon(const float* a, const float* b, float* c, int64_t n,
                          int64_t k, int64_t m) {
  constexpr int64_t kTile = 4;
  for (int64_t kk = 0; kk < k; ++kk) {
    float* crow = c + kk * m;
    int64_t i = 0;
    for (; i + kTile <= n; i += kTile) {
      const float a0 = a[i * k + kk];
      const float a1 = a[(i + 1) * k + kk];
      const float a2 = a[(i + 2) * k + kk];
      const float a3 = a[(i + 3) * k + kk];
      if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
      const float* b0 = b + i * m;
      const float* b1 = b0 + m;
      const float* b2 = b1 + m;
      const float* b3 = b2 + m;
      const float32x4_t va0 = vdupq_n_f32(a0);
      const float32x4_t va1 = vdupq_n_f32(a1);
      const float32x4_t va2 = vdupq_n_f32(a2);
      const float32x4_t va3 = vdupq_n_f32(a3);
      int64_t j = 0;
      for (; j + 4 <= m; j += 4) {
        float32x4_t sum = vmulq_f32(va0, vld1q_f32(b0 + j));
        sum = vaddq_f32(sum, vmulq_f32(va1, vld1q_f32(b1 + j)));
        sum = vaddq_f32(sum, vmulq_f32(va2, vld1q_f32(b2 + j)));
        sum = vaddq_f32(sum, vmulq_f32(va3, vld1q_f32(b3 + j)));
        vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), sum));
      }
      for (; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; i < n; ++i) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + i * m;
      const float32x4_t vav = vdupq_n_f32(av);
      int64_t j = 0;
      for (; j + 4 <= m; j += 4) {
        const float32x4_t prod = vmulq_f32(vav, vld1q_f32(brow + j));
        vst1q_f32(crow + j, vaddq_f32(vld1q_f32(crow + j), prod));
      }
      for (; j < m; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void CopyNeon(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void ZeroNeon(float* dst, int64_t n) {
  if (n > 0) std::memset(dst, 0, static_cast<size_t>(n) * sizeof(float));
}

void AddAccumulateNeon(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vaddq_f32(vld1q_f32(src + i), vld1q_f32(dst + i)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i] + dst[i];
  }
}

void ScaleInplaceNeon(float* v, float s, int64_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(v + i, vmulq_f32(vld1q_f32(v + i), vs));
  }
  for (; i < n; ++i) {
    v[i] = v[i] * s;
  }
}

void GruBlendNeon(float* out, const float* z, const float* h, const float* nn,
                  int64_t n) {
  const float32x4_t kOne = vdupq_n_f32(1.0f);
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t vz = vld1q_f32(z + j);
    const float32x4_t keep = vmulq_f32(vz, vld1q_f32(h + j));
    const float32x4_t take = vmulq_f32(vsubq_f32(kOne, vz), vld1q_f32(nn + j));
    vst1q_f32(out + j, vaddq_f32(keep, take));
  }
  for (; j < n; ++j) {
    out[j] = z[j] * h[j] + (1.0f - z[j]) * nn[j];
  }
}

void RotatePairsNeon(float* out, const float* a, const float* b,
                     const float* c, const float* s, int64_t n) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t ac = vmulq_f32(vld1q_f32(a + j), vld1q_f32(c + j));
    const float32x4_t bs = vmulq_f32(vld1q_f32(b + j), vld1q_f32(s + j));
    vst1q_f32(out + j, vsubq_f32(ac, bs));
  }
  for (; j < n; ++j) {
    const float ac = a[j] * c[j];
    const float bs = b[j] * s[j];
    out[j] = ac - bs;
  }
}

const Kernels MakeNeonTable() {
  // Transcendentals, time encoding and the Adam update stay scalar.
  Kernels t = ScalarKernels();
  t.gemm_accumulate = GemmAccumulateNeon;
  t.gemm_accumulate_nt = GemmAccumulateNTNeon;
  t.gemm_accumulate_tn = GemmAccumulateTNNeon;
  t.copy = CopyNeon;
  t.zero = ZeroNeon;
  t.add_accumulate = AddAccumulateNeon;
  t.scale_inplace = ScaleInplaceNeon;
  t.gru_blend = GruBlendNeon;
  t.rotate_pairs = RotatePairsNeon;
  t.name = "neon";
  return t;
}

}  // namespace

namespace internal {

bool NeonSupported() { return true; }

const Kernels& NeonKernels() {
  static const Kernels table = MakeNeonTable();
  return table;
}

}  // namespace internal
}  // namespace tpgnn::tensor

#else  // !__ARM_NEON

namespace tpgnn::tensor::internal {

bool NeonSupported() { return false; }

const Kernels& NeonKernels() {
  TPGNN_CHECK(false) << "NEON kernels were not compiled into this build";
  return ScalarKernels();
}

}  // namespace tpgnn::tensor::internal

#endif  // __ARM_NEON
