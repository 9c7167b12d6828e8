#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace tpgnn {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedDifferentSequence) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // Astronomically unlikely to be identity.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(41);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[rng.WeightedIndex(weights)]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexSingleElement) {
  Rng rng(43);
  std::vector<double> weights = {2.5};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 0u);
  }
}

TEST(RngTest, SplitMix64IsDeterministic) {
  uint64_t s1 = 123;
  uint64_t s2 = 123;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace tpgnn
