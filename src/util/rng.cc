#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace tpgnn {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& word : state_) {
    word = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

uint64_t Rng::Next() {
  // xoshiro256** step.
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

float Rng::UniformFloat(float lo, float hi) {
  return static_cast<float>(Uniform(lo, hi));
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TPGNN_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(Next());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = max() - max() % range;
  uint64_t value = Next();
  while (value >= limit) {
    value = Next();
  }
  return lo + static_cast<int64_t>(value % range);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 1e-300) {
    u1 = Uniform();
  }
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  TPGNN_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    TPGNN_CHECK_GE(w, 0.0);
    total += w;
  }
  TPGNN_CHECK_GT(total, 0.0);
  double target = Uniform() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace tpgnn
