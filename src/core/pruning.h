// Copyright 2026 The gpssn Authors.
//
// The pruning rules of Sections 3 and 4.2, expressed as pure predicates
// over the query context and index structures:
//
//   object level                      index level
//   ------------                      -----------
//   Lemma 1  match-score (POI)        Lemma 6  match-score (I_R node)
//   Lemma 3  interest-score (user)    Lemma 8  interest-score (I_S node)
//   Corollary 1 pruning region        Lemma 9  social-distance (I_S node)
//   Corollary 2 count-based
//   Lemma 4  social-distance (user)
//   Lemma 5  road-distance (pair)
//
// All predicates answer "can this candidate be SAFELY discarded for the
// given query user u_q?". Lemma 7 (road distance) prunes centers in
// Refine, against the incumbent and the issuer's exact distances, so it
// needs no index bound here (DESIGN.md §5).

#ifndef GPSSN_CORE_PRUNING_H_
#define GPSSN_CORE_PRUNING_H_

#include <span>
#include <vector>

#include "core/options.h"
#include "index/poi_index.h"
#include "index/social_index.h"

namespace gpssn {

/// Facts about the query issuer u_q, precomputed once per query.
struct QueryUserContext {
  GpssnQuery query;
  std::vector<double> w_q;        // u_q's interest vector.
  // u_q's run (socialnet/social_graph.h): its nonzero topics, ascending,
  // and their weights.
  std::vector<KeywordId> q_topics;
  std::vector<double> q_weights;
  std::vector<int> sp_hops;       // dist_SN(u_q, sp_k), k = 1..l.
  // dist_RN(u_q's home, rp_k), k = 1..h: u_q's row of I_S.
  std::span<const double> rp_dist;

  QueryUserContext(const GpssnQuery& q, const SocialIndex& is);

  InterestRun q_run() const { return {q_topics, q_weights}; }
};

// ----- Social side -----

/// Lemma 3 / Corollary 1: prune candidate u_k when
/// Interest_Score(u_q, u_k) < γ (equivalently u_k.w ∈ PR(u_q)), scored
/// over u_k's run: the dot product against u_q's dense row, the other
/// metrics against u_q's run.
bool PruneUserInterest(const QueryUserContext& ctx, InterestRun w_k);

/// Lemma 4: prune u_k when the pivot lower bound of dist_SN(u_k, u_q) is
/// >= τ (a connected τ-group containing both cannot exist).
bool PruneUserSocialDistance(const QueryUserContext& ctx,
                             const SocialPivotTable& pivots, UserId u_k);

/// Lemma 8: prune node e_S when every interest vector in its lb/ub box is
/// inside PR(u_q), the pruning region of geom/pruning_region.h (under the
/// dot product, scored over u_q's run).
bool PruneSocialNodeInterest(const QueryUserContext& ctx,
                             const SocialIndexNode& node);

/// Eq. 19: pivot lower bound of dist_SN(u_q, e_S).
int LbHopsToSocialNode(const QueryUserContext& ctx,
                       const SocialIndexNode& node);

/// Lemma 9: prune node e_S when lb_dist_SN(u_q, e_S) >= τ.
bool PruneSocialNodeDistance(const QueryUserContext& ctx,
                             const SocialIndexNode& node);

// ----- Road side -----

/// Lemma 1 (object level, exact sup_K set): prune POI o_i as a ball center
/// when Match_Score(u_q, sup_K(o_i)) < θ, u_q's run against the sup_K
/// mask. sup_K covers B(o_i, 2·r_max) ⊇ any answer ball containing o_i, so
/// this never discards a feasible center.
///
/// Lemma 6 / Eq. 15 is the same test over an I_R node's mask
/// (PoiIndex::node_mask): the union of sup_K over the subtree scores at
/// least every member's sup_K, so a node below θ holds no feasible center.
bool PrunePoiMatch(const QueryUserContext& ctx,
                   std::span<const uint64_t> sup_mask);

/// The pivot lower bound of the road distance between two points, from
/// their exact distances to the same h road pivots: max_k |a_k − b_k| over
/// the pivots both reach, shaved by 1e-9 · max(1, bound) (0 when no pivot
/// reaches both). Each of the three distances is a sum of edge weights
/// rounded on its own, so the raw max can exceed the distance an engine
/// reports for the pair by a few ulps; shaved, it never does, so a bound
/// cannot reject or reorder an objective that ties it. Every pivot bound
/// the query path rejects or orders by is this one: Eq. 17 (object form)
/// bounds dist_RN(u_q, o_i) from ctx.rp_dist and PoiIndex::pivot_dists(o_i)
/// (Gather's bound and Refine's center key); Lemma 5 (pair form, used in
/// refinement) bounds a member's distance to a center from
/// SocialIndex::user_road_pivot_dists.
double LbRoadPivotDist(std::span<const double> a, std::span<const double> b);

}  // namespace gpssn

#endif  // GPSSN_CORE_PRUNING_H_
