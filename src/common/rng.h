// Copyright 2026 The gpssn Authors.
//
// Deterministic random number generation for data synthesis and sampling.
// All randomness in the library flows through Rng instances seeded
// explicitly, so datasets, tests, and benchmarks are reproducible bit-for-bit.

#ifndef GPSSN_COMMON_RNG_H_
#define GPSSN_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace gpssn {

/// xoshiro256** PRNG (Blackman & Vigna). Fast, 256-bit state, suitable for
/// everything in this library (no cryptographic use).
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four 64-bit state words from `seed` via SplitMix64, which
  /// guarantees a non-zero, well-mixed state for any seed.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next(); }

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// nearly-divisionless method to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
};

/// Zipf-distributed integer sampler over {0, 1, ..., n-1} with exponent s
/// (probability of rank i proportional to 1/(i+1)^s). Precomputes the CDF
/// once; each draw is a binary search.
class ZipfSampler {
 public:
  /// Requires n >= 1 and s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(size_t n, double s);

  /// Draws one rank in [0, n).
  size_t Sample(Rng* rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_RNG_H_
