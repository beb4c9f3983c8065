#include "core/scores.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"
#include "geom/pruning_region.h"

namespace gpssn {

namespace {

// Σ_f min(a_f, x_f) / Σ_f max(a_f, y_f), both sums in the 4-lane order (1.0
// when the denominator is 0). WeightedJaccard is x = y = b; the box bound
// takes x = ub, y = lb.
double JaccardRatio(std::span<const double> a, std::span<const double> x,
                    std::span<const double> y) {
  GPSSN_CHECK(a.size() == x.size() && a.size() == y.size());
  const size_t n = a.size();
  double num[kScoreLanes] = {};
  double den[kScoreLanes] = {};
  size_t f = 0;
  for (; f + kScoreLanes <= n; f += kScoreLanes) {
    for (size_t l = 0; l < kScoreLanes; ++l) {
      num[l] += std::min(a[f + l], x[f + l]);
      den[l] += std::max(a[f + l], y[f + l]);
    }
  }
  for (size_t l = 0; f + l < n; ++l) {  // Tail terms keep their lanes.
    num[l] += std::min(a[f + l], x[f + l]);
    den[l] += std::max(a[f + l], y[f + l]);
  }
  const double total = (den[0] + den[1]) + (den[2] + den[3]);
  return total > 0.0 ? ((num[0] + num[1]) + (num[2] + num[3])) / total : 1.0;
}

}  // namespace

double InterestScore(std::span<const double> a, std::span<const double> b) {
  return Dot(a, b);
}

double WeightedJaccard(std::span<const double> a, std::span<const double> b) {
  return JaccardRatio(a, b, b);
}

double HammingSimilarity(std::span<const double> a,
                         std::span<const double> b) {
  GPSSN_CHECK(a.size() == b.size());
  if (a.empty()) return 1.0;
  int mismatches = 0;
  for (size_t f = 0; f < a.size(); ++f) {
    if ((a[f] > 0.0) != (b[f] > 0.0)) ++mismatches;
  }
  return 1.0 - static_cast<double>(mismatches) / static_cast<double>(a.size());
}

double UserSimilarity(InterestMetric metric, std::span<const double> a,
                      std::span<const double> b) {
  switch (metric) {
    case InterestMetric::kDotProduct:
      return InterestScore(a, b);
    case InterestMetric::kJaccard:
      return WeightedJaccard(a, b);
    case InterestMetric::kHamming:
      return HammingSimilarity(a, b);
  }
  return 0.0;
}

double UbJaccardBox(std::span<const double> q, std::span<const double> lb,
                    std::span<const double> ub) {
  return JaccardRatio(q, ub, lb);
}

double UbHammingBox(std::span<const double> q, std::span<const double> lb,
                    std::span<const double> ub) {
  GPSSN_CHECK(q.size() == lb.size() && q.size() == ub.size());
  if (q.empty()) return 1.0;
  int forced_mismatches = 0;
  for (size_t f = 0; f < q.size(); ++f) {
    const bool in_support = q[f] > 0.0;
    if (in_support && ub[f] <= 0.0) ++forced_mismatches;
    if (!in_support && lb[f] > 0.0) ++forced_mismatches;
  }
  return 1.0 -
         static_cast<double>(forced_mismatches) / static_cast<double>(q.size());
}

double MatchScore(std::span<const double> interests,
                  const std::vector<KeywordId>& keywords) {
  double s = 0.0;
  for (KeywordId kw : keywords) {
    if (kw >= 0 && static_cast<size_t>(kw) < interests.size()) {
      s += interests[kw];
    }
  }
  return s;
}

void AddToKeywordMask(const std::vector<KeywordId>& keywords, int num_topics,
                      uint64_t* mask) {
  for (KeywordId kw : keywords) {
    if (kw >= 0 && kw < num_topics) {
      mask[kw / 64] |= uint64_t{1} << (kw % 64);
    }
  }
}

double MatchScoreOverMask(std::span<const double> interests,
                          std::span<const uint64_t> mask) {
  double s = 0.0;
  for (size_t word = 0; word < mask.size(); ++word) {
    for (uint64_t bits = mask[word]; bits != 0; bits &= bits - 1) {
      const size_t f = word * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (f >= interests.size()) return s;
      s += interests[f];
    }
  }
  return s;
}

double UbMatchScore(std::span<const double> interests,
                    const KeywordBitVector& signature) {
  double s = 0.0;
  for (size_t f = 0; f < interests.size(); ++f) {
    if (interests[f] > 0.0 && signature.MayContain(static_cast<int>(f))) {
      s += interests[f];
    }
  }
  return s;
}

std::vector<KeywordId> UnionKeywords(const SpatialSocialNetwork& ssn,
                                     const std::vector<PoiId>& pois) {
  std::vector<KeywordId> out;
  for (PoiId id : pois) {
    const auto& kws = ssn.poi(id).keywords;
    out.insert(out.end(), kws.begin(), kws.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gpssn
