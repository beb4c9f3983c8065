// Copyright 2026 The gpssn Authors.
//
// The Baseline competitor of Section 6.3: enumerate all user sets S of size
// τ containing u_q that satisfy γ, all POI ball sets R, and return the pair
// with the smallest maximum distance. Running it to completion is
// infeasible at realistic scale (the paper estimates ~1.9e13 days), so —
// exactly as the paper does — its cost is ESTIMATED by sampling: average
// the per-pair cost over `samples` random pairs (S, R) and multiply by the
// number of candidate pairs.
//
// A genuinely exhaustive oracle (BruteForceGpssn) is also provided for
// small networks; the test suite uses it to verify the indexed processor's
// answers.

#ifndef GPSSN_CORE_BASELINE_H_
#define GPSSN_CORE_BASELINE_H_

#include "core/options.h"
#include "core/query.h"
#include "core/stats.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

/// Exhaustive exact GP-SSN evaluation (no indexes, no pruning). Exponential
/// in τ — only usable on small networks; `max_groups` caps the enumeration
/// as a safety net (sets `truncated` in stats when hit). Distances come
/// from a private bounded-Dijkstra backend, the reference search, so the
/// oracle never shares code with a backend under test.
GpssnAnswer BruteForceGpssn(const SpatialSocialNetwork& ssn,
                            const GpssnQuery& query,
                            int64_t max_groups = 5000000,
                            QueryStats* stats = nullptr);

/// Sampling-based cost estimate of the full Baseline run (Section 6.3).
struct BaselineEstimate {
  /// log10 of the number of candidate (S, R) pairs
  /// (= C(m−1, τ−1) · n; stored as log10 because the value overflows).
  double log10_candidate_pairs = 0.0;
  double avg_pair_cpu_seconds = 0.0;  // Measured over the samples.
  double avg_pair_ios = 0.0;
  /// avg_pair_cpu_seconds · pairs, in seconds (may be +inf).
  double estimated_total_cpu_seconds = 0.0;
  double estimated_total_ios = 0.0;
  /// Convenience: estimated total CPU in days.
  double estimated_total_days = 0.0;
};

BaselineEstimate EstimateBaselineCost(const SpatialSocialNetwork& ssn,
                                      const GpssnQuery& query,
                                      int samples = 100, uint64_t seed = 1);

/// log10 of the binomial coefficient C(n, k) (exact via lgamma).
double Log10Binomial(int64_t n, int64_t k);

}  // namespace gpssn

#endif  // GPSSN_CORE_BASELINE_H_
