// Copyright 2026 The gpssn Authors.
//
// Social-network pivot hop tables (Sections 3.2 and 4.1): l users are chosen
// as pivots sp_1..sp_l; exact hop distances dist_SN(u, sp_k) are precomputed
// by one bit-parallel BFS sweep over the pivots (MultiSourceHops). The
// triangle inequality then yields the lower bound
// lb_dist_SN(u_k, u_q) = max_k |dist_SN(u_k, sp_k) − dist_SN(sp_k, u_q)|
// used by the social-network distance pruning (Lemma 4, Eq. 19).

#ifndef GPSSN_SOCIALNET_SOCIAL_PIVOTS_H_
#define GPSSN_SOCIALNET_SOCIAL_PIVOTS_H_

#include <vector>

#include "socialnet/bfs.h"
#include "socialnet/social_graph.h"

namespace gpssn {

/// Precomputed exact hop distances from every user to each pivot.
/// Unreachable pairs store kUnreachableHops.
class SocialPivotTable {
 public:
  SocialPivotTable() = default;

  /// Fills every pivot's row from one multi-source sweep.
  SocialPivotTable(const SocialNetwork& graph, std::vector<UserId> pivots);

  int num_pivots() const { return static_cast<int>(pivots_.size()); }
  const std::vector<UserId>& pivots() const { return pivots_; }

  /// Exact dist_SN(u, sp_k).
  int UserToPivot(UserId u, int k) const { return tables_[k][u]; }

  /// Triangle-inequality lower bound of dist_SN(a, b). Pivots unreachable
  /// from either side contribute nothing. When some pivot reaches exactly
  /// one of the two users, the pair is disconnected and the bound is
  /// kUnreachableHops.
  int LowerBound(UserId a, UserId b) const;

 private:
  std::vector<UserId> pivots_;
  // tables_[k][u] = hop distance from u to pivots_[k].
  std::vector<std::vector<int>> tables_;
};

/// Picks `l` distinct random users as pivots (baseline for Algorithm 1).
std::vector<UserId> RandomSocialPivots(const SocialNetwork& graph, int l,
                                       uint64_t seed);

}  // namespace gpssn

#endif  // GPSSN_SOCIALNET_SOCIAL_PIVOTS_H_
