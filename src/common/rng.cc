#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace gpssn {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
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

uint64_t Rng::NextBounded(uint64_t bound) {
  GPSSN_CHECK(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased fringe.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  GPSSN_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  GPSSN_CHECK(k <= n);
  if (k == 0) return {};
  // For dense samples do a partial Fisher-Yates; for sparse ones use
  // rejection against a hash set.
  if (k * 3 >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextBounded(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    size_t candidate = static_cast<size_t>(NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  GPSSN_CHECK(n >= 1);
  GPSSN_CHECK(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against floating-point shortfall.
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace gpssn
