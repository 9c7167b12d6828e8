// AVX2 kernel table (DESIGN.md §4.6). This translation unit is compiled with
// -mavx2 -ffp-contract=off and deliberately WITHOUT -mfma. Every kernel
// promises bit-identical results to the scalar table through one invariant:
// each output element goes through the same IEEE expressions, in the same
// association and order, as in the scalar kernel. Loop order, blocking and
// where partial results live are free — the GEMM keeps C rows in registers
// across the k loop, which the scalar kernel does not — but an FMA
// contraction (one rounding instead of two) would break the invariant
// silently. The transcendental maps run the exp/tanh/sigmoid polynomial that
// the scalar table evaluates one lane at a time, tails included (masked
// vectors).

#include "tensor/kernels.h"

#include "util/logging.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace tpgnn::tensor {
namespace {

// --- Vector exp/tanh/sigmoid ------------------------------------------------

// expf via Cody-Waite range reduction and a degree-6 polynomial (the classic
// Cephes coefficients), max error ~2 ulp over the clamped domain. Each clamp
// takes the constant first: min/max return their second operand when either
// is NaN, so a NaN passes through.
inline __m256 Exp8(__m256 x) {
  const __m256 kHi = _mm256_set1_ps(88.3762626647950f);
  const __m256 kLo = _mm256_set1_ps(-87.3365478515625f);
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kC1 = _mm256_set1_ps(0.693359375f);
  const __m256 kC2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kOne = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(kHi, x);
  x = _mm256_max_ps(kLo, x);

  __m256 fx = _mm256_add_ps(_mm256_mul_ps(x, kLog2e), kHalf);
  fx = _mm256_floor_ps(fx);

  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, kC1));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, kC2));

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), kOne);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), kOne);

  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2 =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

// tanh(x): Cephes split. |x| < 0.625 uses the odd minimax polynomial
// x + x^3 P(x^2) — the 1 - 2/(exp+1) form cancels catastrophically near
// zero. Larger |x| (and NaN) uses
// sign(x) * (1 - 2 / (exp(2|x|) + 1)); |x| clamped to 9.2, past which the
// expression rounds to ±1 in float anyway.
inline __m256 Tanh8(__m256 x) {
  const __m256 kSignMask = _mm256_set1_ps(-0.0f);
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 kTwo = _mm256_set1_ps(2.0f);
  const __m256 sign = _mm256_and_ps(x, kSignMask);
  __m256 ax = _mm256_andnot_ps(kSignMask, x);

  // Small branch (|x| < 0.625).
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_add_ps(_mm256_mul_ps(p, z), _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small =
      _mm256_add_ps(x, _mm256_mul_ps(_mm256_mul_ps(x, z), p));

  // Large branch.
  ax = _mm256_min_ps(_mm256_set1_ps(9.2f), ax);
  const __m256 e = Exp8(_mm256_mul_ps(kTwo, ax));
  const __m256 large = _mm256_or_ps(
      _mm256_sub_ps(kOne, _mm256_div_ps(kTwo, _mm256_add_ps(e, kOne))), sign);

  const __m256 use_small =
      _mm256_cmp_ps(_mm256_andnot_ps(kSignMask, x),
                    _mm256_set1_ps(0.625f), _CMP_LT_OQ);
  return _mm256_blendv_ps(large, small, use_small);
}

inline __m256 Sigmoid8(__m256 x) {
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 e = Exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(kOne, _mm256_add_ps(kOne, e));
}

// --- GEMM -------------------------------------------------------------------
// Per-element association invariant: every C element receives, for each
// 4-wide k tile in k order, c + ((((a0*b0) + a1*b1) + a2*b2) + a3*b3), then
// c + a*b for each leftover k, and a row skips exactly the all-zero tiles
// (and zero leftovers) the scalar kernel skips. That is the scalar kernel's
// expression sequence per element, so the result is bit-identical whatever
// the loop nest. The nest here differs on purpose: C stays in registers
// across the whole k loop — rows in pairs, 32-column blocks (eight
// accumulators for a pair), then 8-column blocks, then one masked block of
// the leftover columns — so no C element round-trips through memory between
// tiles. The accumulators are named registers, not arrays: GCC -O2 leaves
// array loops rolled and spills them.

constexpr int64_t kGemmTile = 4;

// Selects the first `rem` lanes, 0 < rem < 8.
inline __m256i TailMask(int64_t rem) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Reads and writes all eight lanes of a block.
struct AllLanes {
  __m256 Load(const float* p) const { return _mm256_loadu_ps(p); }
  void Store(float* p, __m256 v) const { _mm256_storeu_ps(p, v); }
};

// Reads and writes the lanes `mask` selects; the others load as zero and are
// never stored.
struct MaskedLanes {
  __m256i mask;
  __m256 Load(const float* p) const { return _mm256_maskload_ps(p, mask); }
  void Store(float* p, __m256 v) const { _mm256_maskstore_ps(p, mask, v); }
};

inline bool ZeroTile(const float* a) {
  return a[0] == 0.0f && a[1] == 0.0f && a[2] == 0.0f && a[3] == 0.0f;
}

// c + ((((a0*b0) + a1*b1) + a2*b2) + a3*b3) per lane; the B rows are `m`
// apart and read through `lanes`.
template <typename Lanes = AllLanes>
__attribute__((always_inline)) inline __m256 AddTile8(
    __m256 c, __m256 a0, __m256 a1, __m256 a2, __m256 a3, const float* b,
    int64_t m, Lanes lanes = {}) {
  __m256 sum = _mm256_mul_ps(a0, lanes.Load(b));
  sum = _mm256_add_ps(sum, _mm256_mul_ps(a1, lanes.Load(b + m)));
  sum = _mm256_add_ps(sum, _mm256_mul_ps(a2, lanes.Load(b + 2 * m)));
  sum = _mm256_add_ps(sum, _mm256_mul_ps(a3, lanes.Load(b + 3 * m)));
  return _mm256_add_ps(c, sum);
}

// c + a*b per lane (one leftover k).
template <typename Lanes = AllLanes>
__attribute__((always_inline)) inline __m256 AddOne8(__m256 c, __m256 a,
                                                     const float* b,
                                                     Lanes lanes = {}) {
  return _mm256_add_ps(c, _mm256_mul_ps(a, lanes.Load(b)));
}

// Columns [0, 32) of one row (kPair: two rows) of C, B and C pointers
// already offset to the block.
template <bool kPair>
void GemmBlock32(const float* ar0, const float* ar1, const float* b,
                 float* c0, float* c1, int64_t k, int64_t m) {
  __m256 x0 = _mm256_loadu_ps(c0);
  __m256 x1 = _mm256_loadu_ps(c0 + 8);
  __m256 x2 = _mm256_loadu_ps(c0 + 16);
  __m256 x3 = _mm256_loadu_ps(c0 + 24);
  __m256 y0 = _mm256_setzero_ps();
  __m256 y1 = y0;
  __m256 y2 = y0;
  __m256 y3 = y0;
  if constexpr (kPair) {
    y0 = _mm256_loadu_ps(c1);
    y1 = _mm256_loadu_ps(c1 + 8);
    y2 = _mm256_loadu_ps(c1 + 16);
    y3 = _mm256_loadu_ps(c1 + 24);
  }
  int64_t kk = 0;
  for (; kk + kGemmTile <= k; kk += kGemmTile) {
    const float* bt = b + kk * m;
    if (!ZeroTile(ar0 + kk)) {
      const __m256 a0 = _mm256_set1_ps(ar0[kk]);
      const __m256 a1 = _mm256_set1_ps(ar0[kk + 1]);
      const __m256 a2 = _mm256_set1_ps(ar0[kk + 2]);
      const __m256 a3 = _mm256_set1_ps(ar0[kk + 3]);
      x0 = AddTile8(x0, a0, a1, a2, a3, bt, m);
      x1 = AddTile8(x1, a0, a1, a2, a3, bt + 8, m);
      x2 = AddTile8(x2, a0, a1, a2, a3, bt + 16, m);
      x3 = AddTile8(x3, a0, a1, a2, a3, bt + 24, m);
    }
    if constexpr (kPair) {
      if (!ZeroTile(ar1 + kk)) {
        const __m256 a0 = _mm256_set1_ps(ar1[kk]);
        const __m256 a1 = _mm256_set1_ps(ar1[kk + 1]);
        const __m256 a2 = _mm256_set1_ps(ar1[kk + 2]);
        const __m256 a3 = _mm256_set1_ps(ar1[kk + 3]);
        y0 = AddTile8(y0, a0, a1, a2, a3, bt, m);
        y1 = AddTile8(y1, a0, a1, a2, a3, bt + 8, m);
        y2 = AddTile8(y2, a0, a1, a2, a3, bt + 16, m);
        y3 = AddTile8(y3, a0, a1, a2, a3, bt + 24, m);
      }
    }
  }
  for (; kk < k; ++kk) {
    const float* bk = b + kk * m;
    if (ar0[kk] != 0.0f) {
      const __m256 av = _mm256_set1_ps(ar0[kk]);
      x0 = AddOne8(x0, av, bk);
      x1 = AddOne8(x1, av, bk + 8);
      x2 = AddOne8(x2, av, bk + 16);
      x3 = AddOne8(x3, av, bk + 24);
    }
    if constexpr (kPair) {
      if (ar1[kk] != 0.0f) {
        const __m256 av = _mm256_set1_ps(ar1[kk]);
        y0 = AddOne8(y0, av, bk);
        y1 = AddOne8(y1, av, bk + 8);
        y2 = AddOne8(y2, av, bk + 16);
        y3 = AddOne8(y3, av, bk + 24);
      }
    }
  }
  _mm256_storeu_ps(c0, x0);
  _mm256_storeu_ps(c0 + 8, x1);
  _mm256_storeu_ps(c0 + 16, x2);
  _mm256_storeu_ps(c0 + 24, x3);
  if constexpr (kPair) {
    _mm256_storeu_ps(c1, y0);
    _mm256_storeu_ps(c1 + 8, y1);
    _mm256_storeu_ps(c1 + 16, y2);
    _mm256_storeu_ps(c1 + 24, y3);
  }
}

// Columns [0, 8) of one row (kPair: two rows), or the first of them that
// `lanes` selects; GemmBlock32 at one vector.
template <bool kPair, typename Lanes = AllLanes>
void GemmBlock8(const float* ar0, const float* ar1, const float* b, float* c0,
                float* c1, int64_t k, int64_t m, Lanes lanes = {}) {
  __m256 x = lanes.Load(c0);
  __m256 y = kPair ? lanes.Load(c1) : _mm256_setzero_ps();
  int64_t kk = 0;
  for (; kk + kGemmTile <= k; kk += kGemmTile) {
    const float* bt = b + kk * m;
    if (!ZeroTile(ar0 + kk)) {
      x = AddTile8(x, _mm256_set1_ps(ar0[kk]), _mm256_set1_ps(ar0[kk + 1]),
                   _mm256_set1_ps(ar0[kk + 2]), _mm256_set1_ps(ar0[kk + 3]),
                   bt, m, lanes);
    }
    if constexpr (kPair) {
      if (!ZeroTile(ar1 + kk)) {
        y = AddTile8(y, _mm256_set1_ps(ar1[kk]), _mm256_set1_ps(ar1[kk + 1]),
                     _mm256_set1_ps(ar1[kk + 2]), _mm256_set1_ps(ar1[kk + 3]),
                     bt, m, lanes);
      }
    }
  }
  for (; kk < k; ++kk) {
    const float* bk = b + kk * m;
    if (ar0[kk] != 0.0f) x = AddOne8(x, _mm256_set1_ps(ar0[kk]), bk, lanes);
    if constexpr (kPair) {
      if (ar1[kk] != 0.0f) y = AddOne8(y, _mm256_set1_ps(ar1[kk]), bk, lanes);
    }
  }
  lanes.Store(c0, x);
  if constexpr (kPair) lanes.Store(c1, y);
}

// Every column of one row (kPair: two rows).
template <bool kPair>
void GemmRows(const float* ar0, const float* ar1, const float* b, float* c0,
              float* c1, int64_t k, int64_t m) {
  int64_t j = 0;
  for (; j + 32 <= m; j += 32) {
    GemmBlock32<kPair>(ar0, ar1, b + j, c0 + j, c1 + j, k, m);
  }
  for (; j + 8 <= m; j += 8) {
    GemmBlock8<kPair>(ar0, ar1, b + j, c0 + j, c1 + j, k, m);
  }
  if (j < m) {
    GemmBlock8<kPair>(ar0, ar1, b + j, c0 + j, c1 + j, k, m,
                      MaskedLanes{TailMask(m - j)});
  }
}

void GemmAccumulateAvx2(const float* a, const float* b, float* c, int64_t n,
                        int64_t k, int64_t m) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    GemmRows<true>(a + i * k, a + (i + 1) * k, b, c + i * m, c + (i + 1) * m,
                   k, m);
  }
  if (i < n) {
    // A single row never reads its second-row pointers; passing the row
    // itself keeps the column offsets applied to them defined.
    GemmRows<false>(a + i * k, a + i * k, b, c + i * m, c + i * m, k, m);
  }
  // GCC 12 emits no vzeroupper on this function's exits, and legacy-SSE
  // code run afterwards with dirty upper YMM halves (libm's sinf/expf in
  // the recorded ops) slows down several-fold.
  _mm256_zeroupper();
}

// The NT variant's inner loops are dot-product reductions whose summation
// order defines the reference result; widening them would reassociate, so
// every ISA delegates to the scalar kernel (kernels.h parity policy).
void GemmAccumulateNTAvx2(const float* a, const float* b, float* c, int64_t n,
                          int64_t k, int64_t m) {
  ScalarKernels().gemm_accumulate_nt(a, b, c, n, k, m);
}

void GemmAccumulateTNAvx2(const float* a, const float* b, float* c, int64_t n,
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
      const __m256 va0 = _mm256_set1_ps(a0);
      const __m256 va1 = _mm256_set1_ps(a1);
      const __m256 va2 = _mm256_set1_ps(a2);
      const __m256 va3 = _mm256_set1_ps(a3);
      int64_t j = 0;
      for (; j + 8 <= m; j += 8) {
        __m256 sum = _mm256_mul_ps(va0, _mm256_loadu_ps(b0 + j));
        sum = _mm256_add_ps(sum, _mm256_mul_ps(va1, _mm256_loadu_ps(b1 + j)));
        sum = _mm256_add_ps(sum, _mm256_mul_ps(va2, _mm256_loadu_ps(b2 + j)));
        sum = _mm256_add_ps(sum, _mm256_mul_ps(va3, _mm256_loadu_ps(b3 + j)));
        _mm256_storeu_ps(crow + j,
                         _mm256_add_ps(_mm256_loadu_ps(crow + j), sum));
      }
      for (; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; i < n; ++i) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + i * m;
      const __m256 vav = _mm256_set1_ps(av);
      int64_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(brow + j));
        _mm256_storeu_ps(crow + j,
                         _mm256_add_ps(_mm256_loadu_ps(crow + j), prod));
      }
      for (; j < m; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// --- Linear elementwise -----------------------------------------------------

void CopyAvx2(float* dst, const float* src, int64_t n) {
  if (n > 0) std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void ZeroAvx2(float* dst, int64_t n) {
  if (n > 0) std::memset(dst, 0, static_cast<size_t>(n) * sizeof(float));
}

void AddAccumulateAvx2(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(src + i),
                               _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i] + dst[i];
  }
}

void ScaleInplaceAvx2(float* v, float s, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, _mm256_mul_ps(_mm256_loadu_ps(v + i), vs));
  }
  for (; i < n; ++i) {
    v[i] = v[i] * s;
  }
}

void GruBlendAvx2(float* out, const float* z, const float* h, const float* nn,
                  int64_t n) {
  const __m256 kOne = _mm256_set1_ps(1.0f);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vz = _mm256_loadu_ps(z + j);
    const __m256 keep = _mm256_mul_ps(vz, _mm256_loadu_ps(h + j));
    const __m256 take =
        _mm256_mul_ps(_mm256_sub_ps(kOne, vz), _mm256_loadu_ps(nn + j));
    _mm256_storeu_ps(out + j, _mm256_add_ps(keep, take));
  }
  for (; j < n; ++j) {
    out[j] = z[j] * h[j] + (1.0f - z[j]) * nn[j];
  }
}

void RotatePairsAvx2(float* out, const float* a, const float* b,
                     const float* c, const float* s, int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 ac = _mm256_mul_ps(_mm256_loadu_ps(a + j),
                                    _mm256_loadu_ps(c + j));
    const __m256 bs = _mm256_mul_ps(_mm256_loadu_ps(b + j),
                                    _mm256_loadu_ps(s + j));
    _mm256_storeu_ps(out + j, _mm256_sub_ps(ac, bs));
  }
  for (; j < n; ++j) {
    const float ac = a[j] * c[j];
    const float bs = b[j] * s[j];
    out[j] = ac - bs;
  }
}

// --- Transcendental maps ----------------------------------------------------
// Each map runs its vector body over the whole array: a tail of fewer than
// 8 elements is one masked vector (maskload zero-fills the inactive lanes,
// maskstore writes only the active ones), so every element, full lane or
// tail alike, takes the same polynomial.

// Runs `body(offset, lanes)` over [0, n) in 8-lane steps, the last step
// masked: `lanes` (AllLanes or MaskedLanes) loads and stores the step's
// lanes.
template <typename Body>
__attribute__((always_inline)) inline void ForEachVector(int64_t n,
                                                         Body body) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    body(i, AllLanes{});
  }
  if (i < n) {
    body(i, MaskedLanes{TailMask(n - i)});
  }
}

void TanhInplaceAvx2(float* v, int64_t n) {
  ForEachVector(n, [&](int64_t i, auto lanes) {
    lanes.Store(v + i, Tanh8(lanes.Load(v + i)));
  });
}

void TanhAddAvx2(float* dst, const float* src, int64_t n) {
  ForEachVector(n, [&](int64_t i, auto lanes) {
    lanes.Store(dst + i,
                Tanh8(_mm256_add_ps(lanes.Load(src + i), lanes.Load(dst + i))));
  });
}

void SigmoidBiasAvx2(float* v, const float* bias, int64_t n) {
  ForEachVector(n, [&](int64_t i, auto lanes) {
    lanes.Store(v + i, Sigmoid8(_mm256_add_ps(lanes.Load(v + i),
                                              lanes.Load(bias + i))));
  });
}

void GruCandidateAvx2(float* out, const float* r, const float* hu,
                      const float* xn, const float* bias, int64_t n) {
  ForEachVector(n, [&](int64_t i, auto lanes) {
    const __m256 xb = _mm256_add_ps(lanes.Load(xn + i), lanes.Load(bias + i));
    const __m256 arg = _mm256_add_ps(
        _mm256_mul_ps(lanes.Load(r + i), lanes.Load(hu + i)), xb);
    lanes.Store(out + i, Tanh8(arg));
  });
}

// --- Time encoding ----------------------------------------------------------
// The phase w*t + phi is computed with vector mul/add (per-lane identical to
// scalar); sin/cos themselves stay libm on every ISA so the periodic
// channels — whose arguments are raw session timestamps in the invariant
// basis — never drift from the recorded path.

void Time2VecAvx2(float* out, float t, const float* w0, const float* phi0,
                  const float* w, const float* phi, int64_t dim) {
  out[0] = w0[0] * t + phi0[0];
  const int64_t periodic = dim - 1;
  const __m256 vt = _mm256_set1_ps(t);
  alignas(32) float theta[8];
  int64_t j = 0;
  for (; j + 8 <= periodic; j += 8) {
    _mm256_store_ps(theta,
                    _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(w + j), vt),
                                  _mm256_loadu_ps(phi + j)));
    for (int lane = 0; lane < 8; ++lane) {
      out[1 + j + lane] = std::sin(theta[lane]);
    }
  }
  for (; j < periodic; ++j) {
    out[j + 1] = std::sin(w[j] * t + phi[j]);
  }
}

void PhasorAvx2(float* sin_out, float* cos_out, float t, const float* w,
                const float* phi, int64_t n) {
  const __m256 vt = _mm256_set1_ps(t);
  alignas(32) float theta[8];
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_store_ps(theta,
                    _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(w + j), vt),
                                  _mm256_loadu_ps(phi + j)));
    for (int lane = 0; lane < 8; ++lane) {
      sin_out[j + lane] = std::sin(theta[lane]);
      cos_out[j + lane] = std::cos(theta[lane]);
    }
  }
  for (; j < n; ++j) {
    const float theta_j = w[j] * t + phi[j];
    sin_out[j] = std::sin(theta_j);
    cos_out[j] = std::cos(theta_j);
  }
}

void RotationAvx2(float* cos_out, float* sin_out, float delta, const float* w,
                  int64_t n) {
  const __m256 vd = _mm256_set1_ps(delta);
  alignas(32) float theta[8];
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_store_ps(theta, _mm256_mul_ps(_mm256_loadu_ps(w + j), vd));
    for (int lane = 0; lane < 8; ++lane) {
      cos_out[j + lane] = std::cos(theta[lane]);
      sin_out[j + lane] = std::sin(theta[lane]);
    }
  }
  for (; j < n; ++j) {
    const float theta_j = w[j] * delta;
    cos_out[j] = std::cos(theta_j);
    sin_out[j] = std::sin(theta_j);
  }
}

// --- Optimizer --------------------------------------------------------------
// Eight parameters per step through the scalar loop's expressions: IEEE
// mul/add/div/sqrt in the same association, no FMA.

void AdamUpdateAvx2(float* p, float* m, float* v, const float* g, int64_t n,
                    float lr, float beta1, float beta2, float eps, float bias1,
                    float bias2) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vc1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vc2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbias1 = _mm256_set1_ps(bias1);
  const __m256 vbias2 = _mm256_set1_ps(bias2);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vg = _mm256_loadu_ps(g + i);
    const __m256 vm = _mm256_add_ps(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(vc1, vg));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(vc2, vg), vg));
    _mm256_storeu_ps(m + i, vm);
    _mm256_storeu_ps(v + i, vv);
    const __m256 m_hat = _mm256_div_ps(vm, vbias1);
    const __m256 v_hat = _mm256_div_ps(vv, vbias2);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(vlr, m_hat),
                      _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps));
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
  }
  for (; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
  // Clean upper YMM halves for the legacy-SSE libm calls that follow in
  // training; see GemmAccumulateAvx2.
  _mm256_zeroupper();
}

const Kernels kAvx2Table = {
    GemmAccumulateAvx2,
    GemmAccumulateNTAvx2,
    GemmAccumulateTNAvx2,
    CopyAvx2,
    ZeroAvx2,
    AddAccumulateAvx2,
    ScaleInplaceAvx2,
    GruBlendAvx2,
    RotatePairsAvx2,
    TanhInplaceAvx2,
    TanhAddAvx2,
    SigmoidBiasAvx2,
    GruCandidateAvx2,
    Time2VecAvx2,
    PhasorAvx2,
    RotationAvx2,
    AdamUpdateAvx2,
    "avx2",
};

}  // namespace

namespace internal {

bool Avx2Supported() { return __builtin_cpu_supports("avx2"); }

const Kernels& Avx2Kernels() { return kAvx2Table; }

}  // namespace internal
}  // namespace tpgnn::tensor

#else  // !defined(__AVX2__)

namespace tpgnn::tensor::internal {

bool Avx2Supported() { return false; }

const Kernels& Avx2Kernels() {
  TPGNN_CHECK(false) << "AVX2 kernels were not compiled into this build";
  return ScalarKernels();
}

}  // namespace tpgnn::tensor::internal

#endif  // defined(__AVX2__)
