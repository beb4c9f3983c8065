// Unit and property tests for the deterministic RNG and the Zipf sampler.

#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace gpssn {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (size_t n : {5u, 50u, 500u}) {
    for (size_t k : {0u, 1u, 3u, 5u}) {
      if (k > n) continue;
      const auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (size_t idx : sample) EXPECT_LT(idx, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// --- ZipfSampler properties, parameterized over the exponent.

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRange) {
  const double s = GetParam();
  ZipfSampler sampler(20, s);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(sampler.Sample(&rng), 20u);
  }
}

TEST_P(ZipfTest, LowerRanksAtLeastAsFrequent) {
  const double s = GetParam();
  ZipfSampler sampler(10, s);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(&rng)];
  if (s > 0.0) {
    // Rank 0 must clearly dominate the last rank for a real Zipf.
    EXPECT_GT(counts[0], counts[9]);
  }
  // Counts should be non-increasing within statistical noise.
  for (int i = 0; i + 1 < 10; ++i) {
    EXPECT_GE(counts[i] + 400, counts[i + 1]) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler sampler(4, 0.0);
  Rng rng(41);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 40);
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler sampler(1, 1.0);
  Rng rng(43);
  EXPECT_EQ(sampler.Sample(&rng), 0u);
}

}  // namespace
}  // namespace gpssn
