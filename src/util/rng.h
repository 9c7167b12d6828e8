#ifndef TPGNN_UTIL_RNG_H_
#define TPGNN_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// Deterministic, seedable random number generation.
//
// Every stochastic component in the library (initializers, dataset
// generators, edge-order shuffling, dropout) draws from an explicitly seeded
// Rng so that experiments are exactly reproducible. The engine is
// xoshiro256** seeded via SplitMix64.

namespace tpgnn {

inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

// SplitMix64's bijective 64-bit mix of state + gamma. Pure, so the
// generator's stream from state x is SplitMix64(x), SplitMix64(x + gamma),
// ... It seeds Rng's engine state and derives per-component seeds, session
// ids, ring points, A/B picks and shard choices.
inline uint64_t SplitMix64(uint64_t state) {
  uint64_t z = state + kSplitMix64Gamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  // UniformRandomBitGenerator interface (usable with <algorithm>/<random>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }
  result_type operator()() { return Next(); }

  // Next raw 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller (one cached value).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // True with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace tpgnn

#endif  // TPGNN_UTIL_RNG_H_
