#include "tensor/kernels.h"

#include <atomic>
#include <cmath>
#include <cstring>

#include "util/env.h"
#include "util/logging.h"

namespace tpgnn::tensor {
namespace {

// --- Scalar GEMM kernels (moved verbatim from the old tensor/gemm.cc) ------

// C += A x B. ikj order with a 4-wide k tile: four B rows stream against one
// resident C row, so C is loaded/stored once per four multiply-adds instead
// of once per one as in the naive ikj loop, and the four independent products
// give the vectorizer ILP to chew on. All-zero tiles (one-hot / padded rows)
// are skipped like the scalar kernel skipped zero elements.
void GemmAccumulateScalar(const float* __restrict__ a,
                          const float* __restrict__ b, float* __restrict__ c,
                          int64_t n, int64_t k, int64_t m) {
  constexpr int64_t kTile = 4;
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    float* __restrict__ crow = c + i * m;
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
      for (int64_t j = 0; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * m;
      for (int64_t j = 0; j < m; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// C += A x B^T: rows of C are dot products of contiguous rows, computed four
// at a time so each A row is read once per four outputs. The inner loops are
// sequential reductions; their summation order is the reference order every
// ISA table must reproduce (see kernels.h), so this kernel stays scalar
// everywhere.
void GemmAccumulateNTScalar(const float* __restrict__ a,
                            const float* __restrict__ b, float* __restrict__ c,
                            int64_t n, int64_t k, int64_t m) {
  constexpr int64_t kTile = 4;
  for (int64_t i = 0; i < n; ++i) {
    const float* arow = a + i * m;
    float* __restrict__ crow = c + i * k;
    int64_t kk = 0;
    for (; kk + kTile <= k; kk += kTile) {
      const float* b0 = b + kk * m;
      const float* b1 = b0 + m;
      const float* b2 = b1 + m;
      const float* b3 = b2 + m;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      float acc2 = 0.0f;
      float acc3 = 0.0f;
      for (int64_t j = 0; j < m; ++j) {
        const float av = arow[j];
        acc0 += av * b0[j];
        acc1 += av * b1[j];
        acc2 += av * b2[j];
        acc3 += av * b3[j];
      }
      crow[kk] += acc0;
      crow[kk + 1] += acc1;
      crow[kk + 2] += acc2;
      crow[kk + 3] += acc3;
    }
    for (; kk < k; ++kk) {
      const float* brow = b + kk * m;
      float acc = 0.0f;
      for (int64_t j = 0; j < m; ++j) {
        acc += arow[j] * brow[j];
      }
      crow[kk] += acc;
    }
  }
}

// C += A^T x B: four A rows are folded into the resident C row per pass.
void GemmAccumulateTNScalar(const float* __restrict__ a,
                            const float* __restrict__ b, float* __restrict__ c,
                            int64_t n, int64_t k, int64_t m) {
  constexpr int64_t kTile = 4;
  for (int64_t kk = 0; kk < k; ++kk) {
    float* __restrict__ crow = c + kk * m;
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
      for (int64_t j = 0; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; i < n; ++i) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + i * m;
      for (int64_t j = 0; j < m; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// --- Scalar elementwise kernels --------------------------------------------

void CopyScalar(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void ZeroScalar(float* dst, int64_t n) {
  if (n > 0) std::memset(dst, 0, static_cast<size_t>(n) * sizeof(float));
}

void AddAccumulateScalar(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = src[i] + dst[i];
  }
}

void ScaleInplaceScalar(float* v, float s, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    v[i] = v[i] * s;
  }
}

void GruBlendScalar(float* out, const float* z, const float* h,
                    const float* nn, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = z[j] * h[j] + (1.0f - z[j]) * nn[j];
  }
}

void RotatePairsScalar(float* out, const float* a, const float* b,
                       const float* c, const float* s, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float ac = a[j] * c[j];
    const float bs = b[j] * s[j];
    out[j] = ac - bs;
  }
}

void TanhInplaceScalar(float* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    v[i] = std::tanh(v[i]);
  }
}

void TanhAddScalar(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = std::tanh(src[i] + dst[i]);
  }
}

void SigmoidBiasScalar(float* v, const float* bias, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    v[j] = 1.0f / (1.0f + std::exp(-(v[j] + bias[j])));
  }
}

void GruCandidateScalar(float* out, const float* r, const float* hu,
                        const float* xn, const float* bias, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float xb = xn[j] + bias[j];
    out[j] = std::tanh(r[j] * hu[j] + xb);
  }
}

void Time2VecScalar(float* out, float t, const float* w0, const float* phi0,
                    const float* w, const float* phi, int64_t dim) {
  out[0] = w0[0] * t + phi0[0];
  for (int64_t j = 0; j < dim - 1; ++j) {
    out[j + 1] = std::sin(w[j] * t + phi[j]);
  }
}

void PhasorScalar(float* sin_out, float* cos_out, float t, const float* w,
                  const float* phi, int64_t n) {
  // Two-step rounding (w*t, then +phi) mirrors the recorded
  // Sin(Add(Scale(w, t), phi)) chain, keeping the two paths bit-identical.
  for (int64_t j = 0; j < n; ++j) {
    const float theta = w[j] * t + phi[j];
    sin_out[j] = std::sin(theta);
    cos_out[j] = std::cos(theta);
  }
}

void RotationScalar(float* cos_out, float* sin_out, float delta,
                    const float* w, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float theta = w[j] * delta;
    cos_out[j] = std::cos(theta);
    sin_out[j] = std::sin(theta);
  }
}

// nn::Adam's update loop, verbatim.
void AdamUpdateScalar(float* p, float* m, float* v, const float* g, int64_t n,
                      float lr, float beta1, float beta2, float eps,
                      float bias1, float bias2) {
  for (int64_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

const Kernels kScalarTable = {
    GemmAccumulateScalar,
    GemmAccumulateNTScalar,
    GemmAccumulateTNScalar,
    CopyScalar,
    ZeroScalar,
    AddAccumulateScalar,
    ScaleInplaceScalar,
    GruBlendScalar,
    RotatePairsScalar,
    TanhInplaceScalar,
    TanhAddScalar,
    SigmoidBiasScalar,
    GruCandidateScalar,
    Time2VecScalar,
    PhasorScalar,
    RotationScalar,
    AdamUpdateScalar,
    "scalar",
};

// --- Dispatch ---------------------------------------------------------------

struct Dispatch {
  std::atomic<const Kernels*> table{&kScalarTable};
  std::atomic<SimdMode> mode{SimdMode::kScalar};
};

SimdMode ResolveAuto() {
  if (internal::Avx2Supported()) return SimdMode::kAvx2;
  if (internal::NeonSupported()) return SimdMode::kNeon;
  return SimdMode::kScalar;
}

const Kernels* TableFor(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return &kScalarTable;
    case SimdMode::kAvx2:
      TPGNN_CHECK(internal::Avx2Supported())
          << "TPGNN_SIMD=avx2 requested but this build/CPU has no AVX2";
      return &internal::Avx2Kernels();
    case SimdMode::kNeon:
      TPGNN_CHECK(internal::NeonSupported())
          << "TPGNN_SIMD=neon requested but this build/CPU has no NEON";
      return &internal::NeonKernels();
    case SimdMode::kAuto:
      return TableFor(ResolveAuto());
  }
  TPGNN_CHECK(false) << "unreachable SimdMode";
  return &kScalarTable;
}

Dispatch& GetDispatch() {
  // The initial mode is read from TPGNN_SIMD exactly once, at first use.
  static Dispatch* d = [] {
    auto* dispatch = new Dispatch();
    SimdMode mode = SimdMode::kAuto;
    const std::string env = GetEnvString("TPGNN_SIMD", "auto");
    TPGNN_CHECK(ParseSimdMode(env.c_str(), &mode))
        << "TPGNN_SIMD must be scalar|avx2|neon|auto, got \"" << env << "\"";
    if (mode == SimdMode::kAuto) mode = ResolveAuto();
    dispatch->table.store(TableFor(mode), std::memory_order_release);
    dispatch->mode.store(mode, std::memory_order_release);
    return dispatch;
  }();
  return *d;
}

}  // namespace

const Kernels& ScalarKernels() { return kScalarTable; }

const Kernels& ActiveKernels() {
  return *GetDispatch().table.load(std::memory_order_acquire);
}

SimdMode ActiveSimdMode() {
  return GetDispatch().mode.load(std::memory_order_acquire);
}

SimdMode SetSimdMode(SimdMode mode) {
  if (mode == SimdMode::kAuto) mode = ResolveAuto();
  Dispatch& d = GetDispatch();
  d.table.store(TableFor(mode), std::memory_order_release);
  d.mode.store(mode, std::memory_order_release);
  return mode;
}

bool SimdModeSupported(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
    case SimdMode::kAuto:
      return true;
    case SimdMode::kAvx2:
      return internal::Avx2Supported();
    case SimdMode::kNeon:
      return internal::NeonSupported();
  }
  return false;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kNeon:
      return "neon";
    case SimdMode::kAuto:
      return "auto";
  }
  return "unknown";
}

bool ParseSimdMode(const char* name, SimdMode* mode) {
  const std::string s(name == nullptr ? "" : name);
  if (s == "scalar") {
    *mode = SimdMode::kScalar;
  } else if (s == "avx2") {
    *mode = SimdMode::kAvx2;
  } else if (s == "neon") {
    *mode = SimdMode::kNeon;
  } else if (s == "auto") {
    *mode = SimdMode::kAuto;
  } else {
    return false;
  }
  return true;
}

}  // namespace tpgnn::tensor
