#include "core/pruning.h"

#include <algorithm>
#include <cmath>

#include "core/scores.h"

namespace gpssn {

namespace {

// Distance from a point value to a closed interval [lo, hi] (0 inside).
int GapToRangeInt(int v, int lo, int hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0;
}

}  // namespace

QueryUserContext::QueryUserContext(const GpssnQuery& q, const SocialIndex& is)
    : query(q),
      w_q(is.ssn().social().Interests(q.issuer).begin(),
          is.ssn().social().Interests(q.issuer).end()),
      rp_dist(is.user_road_pivot_dists(q.issuer)) {
  const InterestRun run = is.ssn().social().Run(q.issuer);
  q_topics.assign(run.topics.begin(), run.topics.end());
  q_weights.assign(run.weights.begin(), run.weights.end());
  const SocialPivotTable& sp = is.social_pivots();
  sp_hops.resize(sp.num_pivots());
  for (int k = 0; k < sp.num_pivots(); ++k) {
    sp_hops[k] = sp.UserToPivot(q.issuer, k);
  }
}

bool PruneUserInterest(const QueryUserContext& ctx, InterestRun w_k) {
  const double score =
      ctx.query.metric == InterestMetric::kDotProduct
          ? InterestScore(ctx.w_q, w_k)
          : RunSimilarity(ctx.query.metric, ctx.q_run(), w_k,
                          static_cast<int>(ctx.w_q.size()));
  return score < ctx.query.gamma;
}

bool PruneUserSocialDistance(const QueryUserContext& ctx,
                             const SocialPivotTable& pivots, UserId u_k) {
  if (u_k == ctx.query.issuer) return false;
  int lb = 0;
  for (int k = 0; k < pivots.num_pivots(); ++k) {
    const int dq = ctx.sp_hops[k];
    const int dk = pivots.UserToPivot(u_k, k);
    const bool rq = dq != kUnreachableHops;
    const bool rk = dk != kUnreachableHops;
    if (rq != rk) return true;  // Different components: unreachable.
    if (!rq) continue;
    lb = std::max(lb, std::abs(dq - dk));
  }
  return lb >= ctx.query.tau;
}

bool PruneSocialNodeInterest(const QueryUserContext& ctx,
                             const SocialIndexNode& node) {
  switch (ctx.query.metric) {
    case InterestMetric::kDotProduct:
      // The half-space pruning region of Section 3.2 (Lemma 8): every box
      // member scores at most the `ub` corner, since u_q's weights are
      // non-negative. Over u_q's run this is PruningRegion::PrunesBox's
      // test, bit for bit.
      return InterestScore(node.ub_w, ctx.q_run()) < ctx.query.gamma;
    case InterestMetric::kJaccard:
      return UbJaccardBox(ctx.w_q, node.lb_w, node.ub_w) < ctx.query.gamma;
    case InterestMetric::kHamming:
      return UbHammingBox(ctx.w_q, node.lb_w, node.ub_w) < ctx.query.gamma;
  }
  return false;
}

int LbHopsToSocialNode(const QueryUserContext& ctx,
                       const SocialIndexNode& node) {
  int lb = 0;
  for (size_t k = 0; k < ctx.sp_hops.size(); ++k) {
    const int dq = ctx.sp_hops[k];
    if (dq == kUnreachableHops) continue;
    if (node.lb_sp[k] == kUnreachableHops) continue;
    // ub may be unreachable while lb is not (mixed node); the gap to the
    // reachable part of the range is still a valid lower bound only against
    // lb (treat ub as unbounded then).
    const int hi = node.ub_sp[k] == kUnreachableHops
                       ? std::numeric_limits<int>::max()
                       : node.ub_sp[k];
    lb = std::max(lb, GapToRangeInt(dq, node.lb_sp[k], hi));
  }
  return lb;
}

bool PruneSocialNodeDistance(const QueryUserContext& ctx,
                             const SocialIndexNode& node) {
  return LbHopsToSocialNode(ctx, node) >= ctx.query.tau;
}

bool PrunePoiMatch(const QueryUserContext& ctx,
                   std::span<const uint64_t> sup_mask) {
  return MatchScoreOverMask(ctx.q_run(), sup_mask) < ctx.query.theta;
}

double LbRoadPivotDist(std::span<const double> a, std::span<const double> b) {
  double lb = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    if (!std::isfinite(a[k]) || !std::isfinite(b[k])) continue;
    lb = std::max(lb, std::abs(a[k] - b[k]));
  }
  return std::max(0.0, lb - 1e-9 * std::max(1.0, lb));
}

}  // namespace gpssn
