#include "tensor/kernels.h"

#include <atomic>
#include <bit>
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

// --- Transcendental maps ---------------------------------------------------
// kernels_avx2.cc's Exp8, Tanh8 and Sigmoid8 one lane at a time: the same
// constants, clamps (constant first, so a NaN passes through), branch choice
// and operation order, and no FMA (this file builds with -ffp-contract=off).
// Every ISA table's maps equal these bit for bit (kernels.h).

// expf via Cody-Waite range reduction and a degree-6 polynomial (the classic
// Cephes coefficients).
inline float ExpPoly(float x) {
  x = 88.3762626647950f < x ? 88.3762626647950f : x;
  x = -87.3365478515625f > x ? -87.3365478515625f : x;
  const float fx = std::floor(x * 1.44269504088896341f + 0.5f);
  x = x - fx * 0.693359375f;
  x = x - fx * -2.12194440e-4f;
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * x + 1.0f;
  y = y * x + 1.0f;
  // 2^fx through the exponent field; fx is an integer in [-126, 128]. A NaN
  // fx leaves y NaN, so its exponent is never read.
  const int32_t n = fx == fx ? static_cast<int32_t>(fx) : 0;
  return y * std::bit_cast<float>(static_cast<uint32_t>(n + 127) << 23);
}

// tanh(x): Cephes split. |x| < 0.625 uses the odd minimax polynomial
// x + x^3 P(x^2), where 1 - 2/(exp+1) would cancel catastrophically. Larger
// |x| (and NaN) uses sign(x) * (1 - 2 / (exp(2|x|) + 1)), |x| clamped to 9.2,
// past which the expression rounds to ±1 anyway.
inline float TanhPoly(float x) {
  const uint32_t bits = std::bit_cast<uint32_t>(x);
  const float ax = std::bit_cast<float>(bits & 0x7fffffffu);
  if (ax < 0.625f) {
    const float z = x * x;
    float p = -5.70498872745e-3f;
    p = p * z + 2.06390887954e-2f;
    p = p * z + -5.37397155531e-2f;
    p = p * z + 1.33314422036e-1f;
    p = p * z + -3.33332819422e-1f;
    return x + (x * z) * p;
  }
  const float e = ExpPoly(2.0f * (9.2f < ax ? 9.2f : ax));
  const float large = 1.0f - 2.0f / (e + 1.0f);
  return std::bit_cast<float>(std::bit_cast<uint32_t>(large) |
                              (bits & 0x80000000u));
}

inline float SigmoidPoly(float x) {
  return 1.0f / (1.0f + ExpPoly(0.0f - x));
}

void TanhInplaceScalar(float* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    v[i] = TanhPoly(v[i]);
  }
}

void TanhAddScalar(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = TanhPoly(src[i] + dst[i]);
  }
}

void SigmoidBiasScalar(float* v, const float* bias, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    v[j] = SigmoidPoly(v[j] + bias[j]);
  }
}

void GruCandidateScalar(float* out, const float* r, const float* hu,
                        const float* xn, const float* bias, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    const float xb = xn[j] + bias[j];
    out[j] = TanhPoly(r[j] * hu[j] + xb);
  }
}

// --- Time encoding and optimizer -------------------------------------------

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

void Install(Dispatch& d, SimdMode mode) {
  d.table.store(TableFor(mode), std::memory_order_release);
  d.mode.store(mode, std::memory_order_release);
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
    Install(*dispatch, mode);
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
  Install(GetDispatch(), mode);
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
