#include "core/scores.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"
#include "geom/pruning_region.h"

namespace gpssn {

namespace {

double CombineLanes(const double* lanes) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

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
  const double total = CombineLanes(den);
  return total > 0.0 ? CombineLanes(num) / total : 1.0;
}

// Walks two runs in ascending topic order, calling both(lane, wa, wb) for
// a topic both hold and one(lane, w) for a topic only one holds, where
// lane = topic mod kScoreLanes.
template <typename Both, typename One>
void MergeRuns(InterestRun a, InterestRun b, Both&& both, One&& one) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const KeywordId fa = a.topics[i];
    const KeywordId fb = b.topics[j];
    if (fa < fb) {
      one(static_cast<size_t>(fa) % kScoreLanes, a.weights[i++]);
    } else if (fa > fb) {
      one(static_cast<size_t>(fb) % kScoreLanes, b.weights[j++]);
    } else {
      both(static_cast<size_t>(fa) % kScoreLanes, a.weights[i++],
           b.weights[j++]);
    }
  }
  for (; i < a.size(); ++i) {
    one(static_cast<size_t>(a.topics[i]) % kScoreLanes, a.weights[i]);
  }
  for (; j < b.size(); ++j) {
    one(static_cast<size_t>(b.topics[j]) % kScoreLanes, b.weights[j]);
  }
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

double InterestScore(std::span<const double> a, InterestRun b) {
  double lanes[kScoreLanes] = {};
  for (size_t i = 0; i < b.size(); ++i) {
    const auto f = static_cast<size_t>(b.topics[i]);
    lanes[f % kScoreLanes] += a[f] * b.weights[i];
  }
  return CombineLanes(lanes);
}

double RunSimilarity(InterestMetric metric, InterestRun a, InterestRun b,
                     int num_topics) {
  const auto none = [](size_t /*lane*/, double /*w*/) {};
  switch (metric) {
    case InterestMetric::kDotProduct: {
      double dot[kScoreLanes] = {};
      MergeRuns(
          a, b,
          [&](size_t lane, double wa, double wb) { dot[lane] += wa * wb; },
          none);
      return CombineLanes(dot);
    }
    case InterestMetric::kJaccard: {
      double min_sum[kScoreLanes] = {};
      double max_sum[kScoreLanes] = {};
      MergeRuns(
          a, b,
          [&](size_t lane, double wa, double wb) {
            min_sum[lane] += std::min(wa, wb);
            max_sum[lane] += std::max(wa, wb);
          },
          [&](size_t lane, double w) { max_sum[lane] += w; });
      const double den = CombineLanes(max_sum);
      return den > 0.0 ? CombineLanes(min_sum) / den : 1.0;
    }
    case InterestMetric::kHamming: {
      if (num_topics == 0) return 1.0;
      size_t common_support = 0;
      MergeRuns(
          a, b, [&](size_t, double, double) { ++common_support; }, none);
      const size_t mismatches = a.size() + b.size() - 2 * common_support;
      return 1.0 - static_cast<double>(mismatches) /
                       static_cast<double>(num_topics);
    }
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

double MatchScoreOverMask(InterestRun interests,
                          std::span<const uint64_t> mask) {
  double s = 0.0;
  for (size_t i = 0; i < interests.size(); ++i) {
    const auto f = static_cast<size_t>(interests.topics[i]);
    if ((mask[f / 64] >> (f % 64)) & 1) s += interests.weights[i];
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
