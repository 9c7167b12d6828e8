// Parity contracts of the runtime-dispatched kernel layer (tensor/kernels.h):
//  * Every entry — GEMM (all three transpose variants), the linear
//    elementwise kernels, the transcendental maps, the time-encoding kernels
//    and the Adam update — must be bit-identical between the scalar table and
//    every supported ISA table, across edge shapes: n/k/m of 0, 1, odd tails
//    below the vector width, and multiples straddling the blocked-GEMM tiles.
//  * The transcendental maps also across their inputs: a strided sweep of
//    every float bit pattern (testing/map_sweep.h; the full sweep is the
//    separate tensor_kernels_full_sweep program), and the special values
//    kernels.h defines, pinned in every table.
//  * Dispatch — mode parsing, support queries and the ScopedSimdMode pin.

#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "testing/map_sweep.h"
#include "util/rng.h"

namespace tpgnn::tensor {
namespace {

// Edge shapes: empty, single element, odd tails below the 8-lane AVX2 width
// and the GEMM k-tile, and widths straddling both.
const int64_t kEdgeSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65};

std::vector<float> RandomVec(int64_t n, uint64_t seed, float lo = -2.5f,
                             float hi = 2.5f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.UniformFloat(lo, hi);
  return v;
}

std::vector<const Kernels*> SupportedIsaTables() {
  std::vector<const Kernels*> tables;
  if (internal::Avx2Supported()) tables.push_back(&internal::Avx2Kernels());
  if (internal::NeonSupported()) tables.push_back(&internal::NeonKernels());
  return tables;
}

void ExpectBitwiseEq(const std::vector<float>& expected,
                     const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], got[i]) << what << " element " << i;
  }
}

// Bit-for-bit equality, except that any two NaNs match: when both operands
// of an add are NaN, x86 returns the first one's payload, and the compiler
// may order a commutative operation either way. Signed zeros and
// infinities must match exactly.
void ExpectSameBits(const std::vector<float>& expected,
                    const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::isnan(expected[i]) && std::isnan(got[i])) continue;
    uint32_t e, g;
    std::memcpy(&e, &expected[i], sizeof(e));
    std::memcpy(&g, &got[i], sizeof(g));
    EXPECT_EQ(e, g) << what << " element " << i << ": scalar " << expected[i]
                    << " vs " << got[i];
  }
}

// --- GEMM bitwise parity across edge shapes --------------------------------

TEST(KernelsGemmTest, AccumulateBitwiseMatchesScalarAcrossEdgeShapes) {
  // Beyond the edge shapes, the AVX2 kernel's register blocking: row pairs
  // (n = 2, 5 = two pairs and a single row), 32- then 8-column blocks and a
  // masked block of leftover columns (m = 31..33, 38 — the GRU backward's
  // dX — 40, 96, and with the edge shapes every leftover width 1..7),
  // 4-wide k tiles plus leftover k (k = 4, 6, 38).
  std::vector<int64_t> ks(std::begin(kEdgeSizes), std::end(kEdgeSizes));
  for (int64_t k : {4, 6, 38}) ks.push_back(k);
  std::vector<int64_t> ms(std::begin(kEdgeSizes), std::end(kEdgeSizes));
  for (int64_t m : {4, 6, 31, 32, 33, 36, 38, 40, 46, 96}) ms.push_back(m);
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : {0, 1, 2, 3, 5}) {
      for (int64_t k : ks) {
        for (int64_t m : ms) {
          auto a = RandomVec(n * k, 17 * static_cast<uint64_t>(k + 1) + 1);
          auto b = RandomVec(k * m, 23 * static_cast<uint64_t>(m + 1) + 2);
          auto c_scalar = RandomVec(n * m, 5);
          auto c_isa = c_scalar;
          ScalarKernels().gemm_accumulate(a.data(), b.data(), c_scalar.data(),
                                          n, k, m);
          isa->gemm_accumulate(a.data(), b.data(), c_isa.data(), n, k, m);
          ExpectBitwiseEq(c_scalar, c_isa,
                          std::string(isa->name) + " gemm n=" +
                              std::to_string(n) + " k=" + std::to_string(k) +
                              " m=" + std::to_string(m));
        }
      }
    }
  }
}

// The zero-tile skip is per row, also inside a row pair. B carries ±0, ±Inf
// and NaN and C starts at -0.0, so a tile (or leftover k) the scalar kernel
// skips but an ISA kernel computed would show: 0·Inf is NaN and
// -0.0 + +0.0 is +0.0.
TEST(KernelsGemmTest, ZeroTileSkipIsPerRowAndSpecialValuesMatchScalar) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr int64_t k = 9;  // Two tiles and one leftover k.
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : {2, 3}) {
      for (int64_t m : {3, 8, 32, 38, 40}) {
        auto a = RandomVec(n * k, 111);
        for (int64_t kk = 0; kk < 4; ++kk) a[kk] = 0.0f;          // Row 0.
        for (int64_t kk = 4; kk < 9; ++kk) a[k + kk] = 0.0f;      // Row 1.
        if (n == 3) {
          // Row 2, a single row: its first tile and its leftover k.
          for (int64_t kk = 0; kk < 4; ++kk) a[2 * k + kk] = -0.0f;
          a[2 * k + 8] = 0.0f;
        }
        auto b = RandomVec(k * m, 112);
        const float specials[] = {inf, -inf, nan, 0.0f, -0.0f};
        for (int64_t i = 0; i < k * m; i += 3) {
          b[static_cast<size_t>(i)] = specials[(i / 3) % 5];
        }
        std::vector<float> c_scalar(static_cast<size_t>(n * m), -0.0f);
        for (size_t i = 1; i < c_scalar.size(); i += 2) c_scalar[i] = 1.25f;
        auto c_isa = c_scalar;
        ScalarKernels().gemm_accumulate(a.data(), b.data(), c_scalar.data(),
                                        n, k, m);
        isa->gemm_accumulate(a.data(), b.data(), c_isa.data(), n, k, m);
        ExpectSameBits(c_scalar, c_isa,
                       std::string(isa->name) + " gemm zero tiles n=" +
                           std::to_string(n) + " m=" + std::to_string(m));
      }
    }
  }
}

TEST(KernelsGemmTest, AccumulateNTBitwiseMatchesScalarAcrossEdgeShapes) {
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{3}}) {
      for (int64_t k : kEdgeSizes) {
        for (int64_t m : kEdgeSizes) {
          auto a = RandomVec(n * m, 31 * static_cast<uint64_t>(m + 1) + 3);
          auto b = RandomVec(k * m, 37 * static_cast<uint64_t>(k + 1) + 4);
          auto c_scalar = RandomVec(n * k, 7);
          auto c_isa = c_scalar;
          ScalarKernels().gemm_accumulate_nt(a.data(), b.data(),
                                             c_scalar.data(), n, k, m);
          isa->gemm_accumulate_nt(a.data(), b.data(), c_isa.data(), n, k, m);
          ExpectBitwiseEq(c_scalar, c_isa,
                          std::string(isa->name) + " gemm_nt n=" +
                              std::to_string(n) + " k=" + std::to_string(k) +
                              " m=" + std::to_string(m));
        }
      }
    }
  }
}

TEST(KernelsGemmTest, AccumulateTNBitwiseMatchesScalarAcrossEdgeShapes) {
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{3}}) {
      for (int64_t k : kEdgeSizes) {
        for (int64_t m : kEdgeSizes) {
          auto a = RandomVec(n * k, 41 * static_cast<uint64_t>(k + 1) + 5);
          auto b = RandomVec(n * m, 43 * static_cast<uint64_t>(m + 1) + 6);
          auto c_scalar = RandomVec(k * m, 9);
          auto c_isa = c_scalar;
          ScalarKernels().gemm_accumulate_tn(a.data(), b.data(),
                                             c_scalar.data(), n, k, m);
          isa->gemm_accumulate_tn(a.data(), b.data(), c_isa.data(), n, k, m);
          ExpectBitwiseEq(c_scalar, c_isa,
                          std::string(isa->name) + " gemm_tn n=" +
                              std::to_string(n) + " k=" + std::to_string(k) +
                              " m=" + std::to_string(m));
        }
      }
    }
  }
}

// --- Linear elementwise bitwise parity -------------------------------------

TEST(KernelsElementwiseTest, BitwiseClassMatchesScalarAcrossEdgeShapes) {
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : kEdgeSizes) {
      const std::string tag =
          std::string(isa->name) + " n=" + std::to_string(n);
      auto src = RandomVec(n, 51);
      auto z = RandomVec(n, 52, 0.0f, 1.0f);
      auto h = RandomVec(n, 53);
      auto nn = RandomVec(n, 54);
      auto c = RandomVec(n, 55, -1.0f, 1.0f);
      auto s = RandomVec(n, 56, -1.0f, 1.0f);

      auto a_scalar = RandomVec(n, 50);
      auto a_isa = a_scalar;
      ScalarKernels().copy(a_scalar.data(), src.data(), n);
      isa->copy(a_isa.data(), src.data(), n);
      ExpectBitwiseEq(a_scalar, a_isa, tag + " copy");

      ScalarKernels().zero(a_scalar.data(), n);
      isa->zero(a_isa.data(), n);
      ExpectBitwiseEq(a_scalar, a_isa, tag + " zero");

      a_scalar = RandomVec(n, 57);
      a_isa = a_scalar;
      ScalarKernels().add_accumulate(a_scalar.data(), src.data(), n);
      isa->add_accumulate(a_isa.data(), src.data(), n);
      ExpectBitwiseEq(a_scalar, a_isa, tag + " add_accumulate");

      ScalarKernels().scale_inplace(a_scalar.data(), 0.3713f, n);
      isa->scale_inplace(a_isa.data(), 0.3713f, n);
      ExpectBitwiseEq(a_scalar, a_isa, tag + " scale_inplace");

      auto out_scalar = RandomVec(n, 58);
      auto out_isa = out_scalar;
      ScalarKernels().gru_blend(out_scalar.data(), z.data(), h.data(),
                                nn.data(), n);
      isa->gru_blend(out_isa.data(), z.data(), h.data(), nn.data(), n);
      ExpectBitwiseEq(out_scalar, out_isa, tag + " gru_blend");

      // gru_blend allows out == h.
      auto h_scalar = h;
      auto h_isa = h;
      ScalarKernels().gru_blend(h_scalar.data(), z.data(), h_scalar.data(),
                                nn.data(), n);
      isa->gru_blend(h_isa.data(), z.data(), h_isa.data(), nn.data(), n);
      ExpectBitwiseEq(h_scalar, h_isa, tag + " gru_blend aliased");

      ScalarKernels().rotate_pairs(out_scalar.data(), src.data(), nn.data(),
                                   c.data(), s.data(), n);
      isa->rotate_pairs(out_isa.data(), src.data(), nn.data(), c.data(),
                        s.data(), n);
      ExpectBitwiseEq(out_scalar, out_isa, tag + " rotate_pairs");
    }
  }
}

// --- Time-encoding bitwise parity ------------------------------------------

TEST(KernelsTimeEncodingTest, BitwiseMatchesScalarAcrossEdgeShapesAndTimes) {
  for (const Kernels* isa : SupportedIsaTables()) {
    // Large raw timestamps exercise the libm sin/cos range reduction that a
    // vector polynomial could not match — these kernels keep sin/cos scalar
    // on every ISA precisely so big-t invariant folds stay bitwise.
    for (float t : {0.0f, 1.5f, 123.25f, 98765.0f}) {
      for (int64_t dim : {int64_t{2}, int64_t{3}, int64_t{6}, int64_t{9},
                          int64_t{17}}) {
        const std::string tag = std::string(isa->name) +
                                " dim=" + std::to_string(dim) +
                                " t=" + std::to_string(t);
        auto w0 = RandomVec(1, 61);
        auto phi0 = RandomVec(1, 62);
        auto w = RandomVec(dim - 1, 63, 0.0f, 1.0f);
        auto phi = RandomVec(dim - 1, 64, 0.0f, 6.28f);

        std::vector<float> out_scalar(static_cast<size_t>(dim));
        std::vector<float> out_isa(static_cast<size_t>(dim));
        ScalarKernels().time2vec(out_scalar.data(), t, w0.data(), phi0.data(),
                                 w.data(), phi.data(), dim);
        isa->time2vec(out_isa.data(), t, w0.data(), phi0.data(), w.data(),
                      phi.data(), dim);
        ExpectBitwiseEq(out_scalar, out_isa, tag + " time2vec");

        const int64_t p = dim - 1;
        std::vector<float> sin_scalar(static_cast<size_t>(p));
        std::vector<float> cos_scalar(static_cast<size_t>(p));
        std::vector<float> sin_isa(static_cast<size_t>(p));
        std::vector<float> cos_isa(static_cast<size_t>(p));
        ScalarKernels().phasor(sin_scalar.data(), cos_scalar.data(), t,
                               w.data(), phi.data(), p);
        isa->phasor(sin_isa.data(), cos_isa.data(), t, w.data(), phi.data(),
                    p);
        ExpectBitwiseEq(sin_scalar, sin_isa, tag + " phasor sin");
        ExpectBitwiseEq(cos_scalar, cos_isa, tag + " phasor cos");

        ScalarKernels().rotation(cos_scalar.data(), sin_scalar.data(), t,
                                 w.data(), p);
        isa->rotation(cos_isa.data(), sin_isa.data(), t, w.data(), p);
        ExpectBitwiseEq(cos_scalar, cos_isa, tag + " rotation cos");
        ExpectBitwiseEq(sin_scalar, sin_isa, tag + " rotation sin");
      }
    }
  }
}

// --- Adam update bitwise parity ---------------------------------------------

// Three steps of nn::Adam's update (the bias corrections of steps 1-3) with
// random, zero and denormal gradients, over lengths around the 8-lane width
// and the default model's 6,989 parameters: parameters and both moments
// must match the scalar loop bit for bit.
TEST(KernelsAdamTest, UpdateBitwiseMatchesScalarAcrossLengthsAndGradients) {
  const int64_t sizes[] = {0, 1, 7, 8, 9, 33, 6989};
  const float denormal = std::numeric_limits<float>::denorm_min();
  const char* const kinds[] = {"random", "zero", "denormal"};
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : sizes) {
      for (int kind = 0; kind < 3; ++kind) {
        const std::string tag = std::string(isa->name) + " n=" +
                                std::to_string(n) + " " + kinds[kind];
        std::vector<float> g = RandomVec(n, 61, -0.5f, 0.5f);
        std::vector<float> m = RandomVec(n, 62, -0.1f, 0.1f);
        std::vector<float> v = RandomVec(n, 63, 0.0f, 0.01f);
        if (kind == 1) {
          // A fresh optimizer seeing a zero gradient: 0 / (0 + eps).
          std::fill(g.begin(), g.end(), 0.0f);
          std::fill(m.begin(), m.end(), 0.0f);
          std::fill(v.begin(), v.end(), 0.0f);
        } else if (kind == 2) {
          for (size_t i = 0; i < g.size(); ++i) {
            g[i] = (i % 2 == 0 ? 1.0f : -1.0f) * denormal *
                   static_cast<float>(1 + i % 1000);
          }
        }
        std::vector<float> p_scalar = RandomVec(n, 64);
        std::vector<float> p_isa = p_scalar;
        std::vector<float> m_scalar = m;
        std::vector<float> m_isa = m;
        std::vector<float> v_scalar = v;
        std::vector<float> v_isa = v;
        for (int step = 1; step <= 3; ++step) {
          const float bias1 = 1.0f - std::pow(0.9f, static_cast<float>(step));
          const float bias2 =
              1.0f - std::pow(0.999f, static_cast<float>(step));
          ScalarKernels().adam_update(p_scalar.data(), m_scalar.data(),
                                      v_scalar.data(), g.data(), n, 1e-3f,
                                      0.9f, 0.999f, 1e-8f, bias1, bias2);
          isa->adam_update(p_isa.data(), m_isa.data(), v_isa.data(),
                           g.data(), n, 1e-3f, 0.9f, 0.999f, 1e-8f, bias1,
                           bias2);
        }
        ExpectSameBits(p_scalar, p_isa, tag + " param");
        ExpectSameBits(m_scalar, m_isa, tag + " first moment");
        ExpectSameBits(v_scalar, v_isa, tag + " second moment");
      }
    }
  }
}

// --- Transcendental maps ------------------------------------------------------

TEST(KernelsTranscendentalTest, MapsBitwiseMatchScalarAcrossEdgeShapes) {
  // Beyond the edge shapes: every masked-tail length alone (1..7), one
  // full vector (8), a vector plus a one-lane tail (9), and the 38-wide
  // readout row (four vectors and a six-lane tail).
  std::vector<int64_t> sizes(std::begin(kEdgeSizes), std::end(kEdgeSizes));
  for (int64_t n : {4, 6, 38}) sizes.push_back(n);
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n : sizes) {
      const std::string tag =
          std::string(isa->name) + " n=" + std::to_string(n);
      // Cover the saturating tails as well as the active region.
      auto v = RandomVec(n, 71, -12.0f, 12.0f);
      auto src = RandomVec(n, 72, -3.0f, 3.0f);
      auto bias = RandomVec(n, 73);
      auto r = RandomVec(n, 74, 0.0f, 1.0f);
      auto hu = RandomVec(n, 75);
      auto xn = RandomVec(n, 76);

      auto v_scalar = v;
      auto v_isa = v;
      ScalarKernels().tanh_inplace(v_scalar.data(), n);
      isa->tanh_inplace(v_isa.data(), n);
      ExpectBitwiseEq(v_scalar, v_isa, tag + " tanh_inplace");

      v_scalar = v;
      v_isa = v;
      ScalarKernels().tanh_add(v_scalar.data(), src.data(), n);
      isa->tanh_add(v_isa.data(), src.data(), n);
      ExpectBitwiseEq(v_scalar, v_isa, tag + " tanh_add");

      v_scalar = v;
      v_isa = v;
      ScalarKernels().sigmoid_bias(v_scalar.data(), bias.data(), n);
      isa->sigmoid_bias(v_isa.data(), bias.data(), n);
      ExpectBitwiseEq(v_scalar, v_isa, tag + " sigmoid_bias");

      std::vector<float> out_scalar(static_cast<size_t>(n));
      std::vector<float> out_isa(static_cast<size_t>(n));
      ScalarKernels().gru_candidate(out_scalar.data(), r.data(), hu.data(),
                                    xn.data(), bias.data(), n);
      isa->gru_candidate(out_isa.data(), r.data(), hu.data(), xn.data(),
                         bias.data(), n);
      ExpectBitwiseEq(out_scalar, out_isa, tag + " gru_candidate");
    }
  }
}

// Every map over every 1021st float bit pattern, NaNs and infinities
// included, in blocks whose masked tails run (testing/map_sweep.h): each
// supported ISA table against the scalar table.
TEST(KernelsTranscendentalTest, StridedSweepBitwiseMatchesScalar) {
  for (const Kernels* isa : SupportedIsaTables()) {
    const SweepResult result =
        SweepMaps(ScalarKernels(), *isa, 0, uint64_t{1} << 32, 1021);
    EXPECT_GT(result.inputs, 4000000u) << isa->name;
    EXPECT_EQ(result.mismatches, 0u)
        << isa->name << ": first mismatch " << result.first_mismatch;
  }
}

// The special values kernels.h defines, and the edges of the polynomial's
// branches and clamps, through all four maps in every table.
TEST(KernelsTranscendentalTest, SpecialValuesAreDefinedOnceForEveryTable) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float max_denorm = std::numeric_limits<float>::min() - denorm;
  std::vector<float> inputs = {nan,   -nan,        inf,         -inf,
                               0.0f,  -0.0f,       denorm,      -denorm,
                               max_denorm, -max_denorm};
  // The small/large branch edge, the 9.2 clamp of tanh's |x| and exp's
  // clamps, each with its float neighbours, both signs.
  for (float edge : {0.625f, 9.2f, 87.3365478515625f, 88.3762626647950f}) {
    for (float x : {std::nextafter(edge, 0.0f), edge,
                    std::nextafter(edge, inf)}) {
      inputs.push_back(x);
      inputs.push_back(-x);
    }
  }
  std::vector<const Kernels*> tables = {&ScalarKernels()};
  for (const Kernels* isa : SupportedIsaTables()) tables.push_back(isa);
  auto run = [&](const Kernels& t, int map) {
    std::vector<float> out(inputs.size());
    RunMap(t, map, inputs.data(), static_cast<int64_t>(inputs.size()),
           out.data());
    return out;
  };
  for (int map = 0; map < kNumMaps; ++map) {
    const std::vector<float> expected = run(ScalarKernels(), map);
    for (const Kernels* t : tables) {
      const std::string tag = std::string(t->name) + " " + kMapNames[map];
      const std::vector<float> got = run(*t, map);
      ExpectSameBits(expected, got, tag);
      for (size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(std::isnan(got[i]), std::isnan(inputs[i]))
            << tag << " input " << inputs[i];
      }
      // The polynomial's own answers (libm's tanh(-0) would be -0).
      const bool sigmoid = map == 2;
      const auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
      for (size_t i = 2; i < 6; ++i) {
        const float x = inputs[i];
        const float want = sigmoid ? (x == inf    ? 1.0f
                                      : x == -inf ? 0.0f
                                                  : 0.5f)
                                   : (x == inf    ? 1.0f
                                      : x == -inf ? -1.0f
                                                  : 0.0f);
        EXPECT_EQ(bits(got[i]), bits(want)) << tag << " input " << x;
      }
    }
  }
}

TEST(KernelsTranscendentalTest, MaskedTailsWriteOnlyTheirLanes) {
  constexpr float kSentinel = 12345.0f;
  for (const Kernels* isa : SupportedIsaTables()) {
    for (int64_t n = 1; n <= 9; ++n) {
      const std::string tag =
          std::string(isa->name) + " n=" + std::to_string(n);
      // Inputs are n wide; outputs get 8 sentinel floats past the end.
      auto in = RandomVec(n, 81);
      auto out = RandomVec(n, 82);
      out.resize(static_cast<size_t>(n + 8), kSentinel);
      auto expect_sentinels = [&](const char* kernel) {
        for (int64_t i = n; i < n + 8; ++i) {
          EXPECT_EQ(out[static_cast<size_t>(i)], kSentinel)
              << tag << " " << kernel << " wrote lane " << i;
        }
      };
      isa->tanh_inplace(out.data(), n);
      expect_sentinels("tanh_inplace");
      isa->tanh_add(out.data(), in.data(), n);
      expect_sentinels("tanh_add");
      isa->sigmoid_bias(out.data(), in.data(), n);
      expect_sentinels("sigmoid_bias");
      isa->gru_candidate(out.data(), in.data(), in.data(), in.data(),
                         in.data(), n);
      expect_sentinels("gru_candidate");
    }
  }
}

TEST(KernelsTranscendentalTest, SaturatedTailsAreExactlyPlusMinusOne) {
  for (const Kernels* isa : SupportedIsaTables()) {
    std::vector<float> v = {-100.0f, -15.0f, 15.0f, 100.0f};
    isa->tanh_inplace(v.data(), static_cast<int64_t>(v.size()));
    EXPECT_EQ(v[0], -1.0f) << isa->name;
    EXPECT_EQ(v[1], -1.0f) << isa->name;
    EXPECT_EQ(v[2], 1.0f) << isa->name;
    EXPECT_EQ(v[3], 1.0f) << isa->name;
  }
}

// --- Dispatch ----------------------------------------------------------------

TEST(KernelsDispatchTest, ParseSimdModeRoundTripsAndRejectsJunk) {
  SimdMode mode;
  ASSERT_TRUE(ParseSimdMode("scalar", &mode));
  EXPECT_EQ(mode, SimdMode::kScalar);
  ASSERT_TRUE(ParseSimdMode("avx2", &mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);
  ASSERT_TRUE(ParseSimdMode("neon", &mode));
  EXPECT_EQ(mode, SimdMode::kNeon);
  ASSERT_TRUE(ParseSimdMode("auto", &mode));
  EXPECT_EQ(mode, SimdMode::kAuto);
  EXPECT_FALSE(ParseSimdMode("avx512", &mode));
  EXPECT_FALSE(ParseSimdMode("", &mode));
}

TEST(KernelsDispatchTest, ScalarModeIsAlwaysSupported) {
  EXPECT_TRUE(SimdModeSupported(SimdMode::kScalar));
  EXPECT_TRUE(SimdModeSupported(SimdMode::kAuto));
}

TEST(KernelsDispatchTest, ScopedSimdModeRestoresThePreviousMode) {
  const SimdMode before = ActiveSimdMode();
  {
    ScopedSimdMode pin(SimdMode::kScalar);
    EXPECT_EQ(ActiveSimdMode(), SimdMode::kScalar);
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  EXPECT_EQ(ActiveSimdMode(), before);
}

TEST(KernelsDispatchTest, AutoResolvesToAConcreteSupportedMode) {
  ScopedSimdMode pin(SimdMode::kAuto);
  const SimdMode resolved = ActiveSimdMode();
  EXPECT_NE(resolved, SimdMode::kAuto);
  EXPECT_TRUE(SimdModeSupported(resolved));
  if (internal::Avx2Supported()) {
    EXPECT_EQ(resolved, SimdMode::kAvx2);
    EXPECT_STREQ(ActiveKernels().name, "avx2");
  }
}

}  // namespace
}  // namespace tpgnn::tensor
