#ifndef TPGNN_TENSOR_KERNELS_H_
#define TPGNN_TENSOR_KERNELS_H_

#include <cstdint>

// Runtime-dispatched compute kernels (DESIGN.md §4.6). Every numeric loop
// the per-edge propagation steps, the GRU step, the GEMM wrappers, the
// recorded tanh/sigmoid ops and the zero-copy inference paths execute lives
// behind one function-pointer table, selected once per process from CPUID
// with a TPGNN_SIMD=scalar|avx2|auto override. The scalar table is the
// reference semantics.
//
// Parity policy (tested by tests/tensor/kernels_test.cc): every entry of
// every ISA table is bit-identical to the scalar table's, for all shapes and
// all inputs. This holds because ISA kernels only vectorize across
// independent output elements, with the scalar kernel's per-element
// expressions in the same association and no FMA contraction (kernels*.cc
// build with -ffp-contract=off). Reductions that cannot keep the scalar
// summation order (gemm_accumulate_nt's inner dot products) stay scalar on
// every ISA. Training, offline inference and serving all run the active
// table, so losses, parameters, checkpoints and scores are ISA-independent.
//
// The transcendental maps evaluate exp, tanh and sigmoid with one polynomial
// on every ISA, not libm: exp by Cody-Waite range reduction and the Cephes
// degree-6 polynomial on an argument clamped to [-87.34, 88.38]; tanh by
// x + x^3 P(x^2) for |x| < 0.625 and sign(x) * (1 - 2 / (exp(2 min(|x|,
// 9.2)) + 1)) above; sigmoid(x) = 1 / (1 + exp(0 - x)). Special values:
//   tanh(NaN) = NaN, tanh(±Inf) = ±1, tanh(±0) = +0;
//   sigmoid(NaN) = NaN, sigmoid(+Inf) = 1, sigmoid(-Inf) = 0,
//   sigmoid(±0) = 0.5.
// sin and cos stay libm, called per element on every ISA.

namespace tpgnn::tensor {

struct Kernels {
  // --- GEMM ------------------------------------------------------------------
  // C += A x B (C [n, m], A [n, k], B [k, m]).
  void (*gemm_accumulate)(const float* a, const float* b, float* c, int64_t n,
                          int64_t k, int64_t m);
  // C += A x B^T (C [n, k], A [n, m], B [k, m]); inner loops are dot-product
  // reductions, so every ISA keeps the scalar summation order.
  void (*gemm_accumulate_nt)(const float* a, const float* b, float* c,
                             int64_t n, int64_t k, int64_t m);
  // C += A^T x B (C [k, m], A [n, k], B [n, m]).
  void (*gemm_accumulate_tn)(const float* a, const float* b, float* c,
                             int64_t n, int64_t k, int64_t m);

  // --- Linear elementwise ----------------------------------------------------
  void (*copy)(float* dst, const float* src, int64_t n);
  void (*zero)(float* dst, int64_t n);
  // dst[i] = src[i] + dst[i] (the SUM fold's association order).
  void (*add_accumulate)(float* dst, const float* src, int64_t n);
  void (*scale_inplace)(float* v, float s, int64_t n);
  // out[j] = z[j] * h[j] + (1 - z[j]) * n[j]; out may alias h.
  void (*gru_blend)(float* out, const float* z, const float* h,
                    const float* nn, int64_t n);
  // out[j] = a[j] * c[j] - b[j] * s[j], computed as (a*c) - (b*s) with one
  // rounding per product: the invariant-basis phasor rotation.
  void (*rotate_pairs)(float* out, const float* a, const float* b,
                       const float* c, const float* s, int64_t n);

  // --- Transcendental maps (the polynomial above) ---------------------------
  void (*tanh_inplace)(float* v, int64_t n);
  // dst[i] = tanh(src[i] + dst[i]) — the fused stabilized-SUM step.
  void (*tanh_add)(float* dst, const float* src, int64_t n);
  // v[j] = sigmoid(v[j] + bias[j]) — the fused GRU gate epilogue.
  void (*sigmoid_bias)(float* v, const float* bias, int64_t n);
  // out[j] = tanh(r[j] * hu[j] + (xn[j] + bias[j])) — the GRU candidate,
  // associating exactly like Tanh(MulAdd(r, h·Un, Affine(x, Wn, bn))).
  void (*gru_candidate)(float* out, const float* r, const float* hu,
                        const float* xn, const float* bias, int64_t n);

  // --- Time encoding (sin/cos stay libm on every ISA) ------------------------
  // out[0] = w0*t + phi0; out[1 + j] = sin(w[j]*t + phi[j]), dim-1 wide.
  void (*time2vec)(float* out, float t, const float* w0, const float* phi0,
                   const float* w, const float* phi, int64_t dim);
  // sin_out[j] = sin(w[j]*t + phi[j]), cos_out[j] = cos(w[j]*t + phi[j]).
  void (*phasor)(float* sin_out, float* cos_out, float t, const float* w,
                 const float* phi, int64_t n);
  // cos_out[j] = cos(w[j]*delta), sin_out[j] = sin(w[j]*delta).
  void (*rotation)(float* cos_out, float* sin_out, float delta,
                   const float* w, int64_t n);

  // --- Optimizer -------------------------------------------------------------
  // One Adam step over n parameters (nn::Adam), per element:
  //   m = beta1*m + (1 - beta1)*g;  v = beta2*v + (1 - beta2)*g*g;
  //   p -= lr * (m / bias1) / (sqrt(v / bias2) + eps).
  // Correctly rounded div and sqrt, no FMA, this association on every ISA.
  void (*adam_update)(float* p, float* m, float* v, const float* g, int64_t n,
                      float lr, float beta1, float beta2, float eps,
                      float bias1, float bias2);

  const char* name;  // "scalar", "avx2", "neon".
};

enum class SimdMode {
  kScalar,
  kAvx2,
  kNeon,
  kAuto,  // Highest ISA this build + CPU supports; resolves to one of the
          // concrete modes above.
};

// The reference table; always available.
const Kernels& ScalarKernels();

// The table for the mode selected at startup: TPGNN_SIMD when set (the
// process aborts on an explicit request for an ISA this build or CPU cannot
// run — a forced-ISA CI leg must not silently test scalar), else kAuto.
const Kernels& ActiveKernels();

// The concrete mode ActiveKernels() resolved to (never kAuto).
SimdMode ActiveSimdMode();

// Test/bench override; resolves kAuto and returns the concrete mode now
// active. Aborts on an unsupported concrete mode, like the env override.
SimdMode SetSimdMode(SimdMode mode);

// True when the named concrete mode can execute on this build + CPU.
bool SimdModeSupported(SimdMode mode);

const char* SimdModeName(SimdMode mode);
// Parses "scalar" / "avx2" / "neon" / "auto"; returns false on junk.
bool ParseSimdMode(const char* name, SimdMode* mode);

// RAII mode pin for tests and benches.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode)
      : previous_(ActiveSimdMode()) {
    SetSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSimdMode(previous_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdMode previous_;
};

namespace internal {
// Defined by kernels_avx2.cc / kernels_neon.cc. When the translation unit was
// built without the ISA (non-x86 target, compiler without -mavx2), the
// corresponding *Supported() returns false and the table getter aborts.
bool Avx2Supported();
const Kernels& Avx2Kernels();
bool NeonSupported();
const Kernels& NeonKernels();
}  // namespace internal

}  // namespace tpgnn::tensor

#endif  // TPGNN_TENSOR_KERNELS_H_
