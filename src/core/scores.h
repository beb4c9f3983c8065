// Copyright 2026 The gpssn Authors.
//
// The two scores of Definition 5: the common-interest score between users
// (Eq. 1) and the user-vs-POI-set matching score (Eq. 2), the latter also
// over a keyword mask, which is how Lemmas 1 and 6 score sup_K.
//
// Every interest score sums its per-topic terms in one order, the 4-lane
// order: term f goes to lane f mod 4, each lane adds its terms in ascending
// f, and the lanes combine as (l0 + l1) + (l2 + l3). A vector of any length
// qualifies; a tail term goes to its own lane, which equals zero padding.
// The order is part of the definition, not an implementation detail: the
// dense kernels, the run kernels below (over a user's nonzero topics,
// socialnet/social_graph.h), the box bounds, the Lemma 8 region
// (geom/pruning_region.h) and the oracle all compute it, so every kernel
// returns the same bits and no γ tie can split them. Four independent
// lanes also let the compiler keep the accumulators in vector registers.
//
// A run kernel skips the topics a run does not hold. Their dense terms are
// zeros, and adding a zero leaves a lane's value unchanged (a lane starts at
// +0.0, so even a -0.0 term cannot flip its sign), so accumulating the
// held terms into lane f mod 4 in ascending f returns the dense kernel's
// bits.

#ifndef GPSSN_CORE_SCORES_H_
#define GPSSN_CORE_SCORES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "roadnet/types.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

/// Lane count of the summation order above.
inline constexpr size_t kScoreLanes = 4;

/// Eq. 1: Interest_Score(u_j, u_k) = Σ_f w_f(j) · w_f(k), in the 4-lane
/// order (it is geom's Dot, which the Lemma 8 box test shares).
double InterestScore(std::span<const double> a, std::span<const double> b);

/// Weighted Jaccard similarity: Σ_f min(a_f, b_f) / Σ_f max(a_f, b_f)
/// (1.0 when both vectors are all-zero), numerator and denominator each in
/// the 4-lane order. The paper's "future work" metric.
double WeightedJaccard(std::span<const double> a, std::span<const double> b);

/// Hamming similarity over topic supports: 1 − |supp(a) Δ supp(b)| / d.
/// The mismatch count is an integer, so every order gives the same bits.
double HammingSimilarity(std::span<const double> a, std::span<const double> b);

/// Dispatches on the query's interest metric.
double UserSimilarity(InterestMetric metric, std::span<const double> a,
                      std::span<const double> b);

/// InterestScore(a, b) for a dense row `a` and a run `b` of the same
/// vocabulary, bit for bit: one multiply-add per topic b holds.
double InterestScore(std::span<const double> a, InterestRun b);

/// UserSimilarity over two runs of a `num_topics`-topic vocabulary, bit for
/// bit: a merge of the two topic lists. The Jaccard denominator sums max
/// over the union of the supports; the Hamming mismatches are the topics
/// exactly one run holds.
double RunSimilarity(InterestMetric metric, InterestRun a, InterestRun b,
                     int num_topics);

/// Upper bound of the weighted Jaccard between `q` and ANY vector inside
/// the box [lb, ub]: Σ min(q, ub) / Σ max(q, lb). Used for node-level
/// pruning under the Jaccard metric (the half-space region of Section 3.2
/// only applies to the dot product). Both sums use the 4-lane order, so
/// with monotone rounding the bound is exactly >= every box member's
/// WeightedJaccard.
double UbJaccardBox(std::span<const double> q, std::span<const double> lb,
                    std::span<const double> ub);

/// Upper bound of the Hamming similarity between `q` and ANY vector in the
/// box [lb, ub]: a topic can avoid a support mismatch unless the box forces
/// one (q_f in the support but ub_f == 0, or q_f outside but lb_f > 0).
double UbHammingBox(std::span<const double> q, std::span<const double> lb,
                    std::span<const double> ub);

/// Eq. 2: Match_Score(u_j, R) = Σ_f w_f(j) · χ(f ∈ keywords). `keywords`
/// must be sorted unique keyword ids (the union over the POI set R).
double MatchScore(std::span<const double> interests,
                  const std::vector<KeywordId>& keywords);

/// Eq. 2 over a keyword mask (common/bitvector.h): Σ w_f over the set bits
/// f < |interests|, in ascending f. That is the order MatchScore sums a
/// sorted keyword list in, so for the same set both return the same bits.
double MatchScoreOverMask(std::span<const double> interests,
                          std::span<const uint64_t> mask);

/// MatchScoreOverMask over a run, bit for bit: Σ w_f over the held topics
/// whose bit is set, in ascending f. `mask` spans the run's vocabulary
/// (KeywordMaskWords(d) words).
double MatchScoreOverMask(InterestRun interests,
                          std::span<const uint64_t> mask);

/// Union of the keyword sets of the given POIs, sorted unique.
std::vector<KeywordId> UnionKeywords(const SpatialSocialNetwork& ssn,
                                     const std::vector<PoiId>& pois);

}  // namespace gpssn

#endif  // GPSSN_CORE_SCORES_H_
