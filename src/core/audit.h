// Copyright 2026 The gpssn Authors.
//
// The invariant-audit layer: machine checks that the structures and pruning
// rules the paper's speedups rest on are actually sound, not just fast.
//
// Two halves:
//
//  1. Structural validators — pure functions that walk an index and report
//     every broken invariant with the exact offending node:
//       * R*-tree: MBR containment, fan-out / minimum-fill bounds, level
//         coherence (uniform leaf depth), object count.
//       * I_R augmentations: each node mask is the OR of its entries'
//         masks, subtree POI counts add up, stored balls equal a fresh
//         search, ascend by (distance, id) and carry their running keyword
//         unions, and pivot rows equal fresh pivot distances.
//       * I_S partition tree: leaves partition the user set (disjoint,
//         complete, consistent with leaf_of_user), interest / social-pivot
//         lb/ub boxes contain every member, subtree counts and levels are
//         coherent, and users' road-pivot rows equal fresh distances.
//
//  2. PruningAuditor — a sampling recorder the query processor notifies on
//     every pruned candidate. Sampled events are re-tested against the
//     brute-force predicate the pruning lemma claims to subsume (exact
//     interest scores, exact BFS hop distances, exact Dijkstra road
//     distances, exact keyword-union match scores). An over-eager prune is
//     invisible to answer-checking tests unless the optimum happens to be
//     pruned; the auditor catches it at the moment it happens and names the
//     lemma, the candidate, and both sides of the violated inequality.
//
// In GPSSN_AUDIT builds (cmake -DGPSSN_AUDIT=ON, preset "audit") every
// GpssnProcessor validates both indexes at construction, as does every
// GpssnDatabase::AddPoi after patching I_R, and every processor installs a
// default auditor that aborts on the first unsound prune. In normal builds
// the layer compiles but costs one null-pointer test per prune event;
// tests can install an auditor explicitly via QueryOptions::auditor.

#ifndef GPSSN_CORE_AUDIT_H_
#define GPSSN_CORE_AUDIT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pruning.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"

namespace gpssn {

/// One broken invariant, localized to the node / object that violates it.
struct AuditIssue {
  std::string check;   // Stable identifier, e.g. "rtree-mbr-containment".
  int32_t node = -1;   // Offending RNodeId / SNodeId (-1: not node-scoped).
  std::string detail;  // Human-readable diagnostic with both inequality sides.
};

/// Result of a structural validation pass.
struct AuditReport {
  std::vector<AuditIssue> issues;

  bool ok() const { return issues.empty(); }
  /// "ok" or one line per issue.
  std::string ToString() const;
};

/// Validates the raw R*-tree structure: every internal entry's MBR contains
/// its child's entries, levels decrease by one toward the leaves (uniform
/// leaf depth), node fan-out respects [min_entries, max_entries] (root
/// exempt from the minimum), no node is reachable twice, and the leaf
/// entries add up to tree.size().
AuditReport AuditRStarTree(const RStarTree& tree);

/// AuditRStarTree plus the I_R augmentation invariants: every node mask
/// equals the OR of its entries' masks ("poi-node-mask"), each POI carries
/// one distance per road pivot, subtree_pois counts are exact, and each
/// POI's stored B(o, r_max) holds o at distance 0, keeps every distance in
/// [0, r_max] and equals a fresh PoiLocator::BallWithDistances(position,
/// r_max) ("poi-ball"; one bounded search per POI).
AuditReport AuditPoiIndex(const PoiIndex& index);

/// Validates the I_S partition tree: leaf user lists are disjoint and cover
/// every user exactly once (consistent with leaf_of_user), levels decrease
/// by one toward the leaves, subtree_users counts are exact, and the
/// interest (Eqs. 9-10) and social-pivot (Eqs. 11-12) lb/ub boxes contain
/// every member user.
AuditReport AuditSocialIndex(const SocialIndex& index);

/// Runs AuditPoiIndex and AuditSocialIndex and aborts with the failing
/// report on any issue. GPSSN_AUDIT builds call it when a processor is
/// constructed and after every GpssnDatabase::AddPoi.
void AuditIndexesOrDie(const PoiIndex& poi_index,
                       const SocialIndex& social_index);

/// The pruning rule behind an audited event (names match the lemmas of
/// Sections 3-4, see core/pruning.h).
enum class PruneRule : int {
  kUserInterest = 0,       // Lemma 3 / Corollary 1.
  kUserSocialDistance,     // Lemma 4 (pivot lower bound).
  kSocialNodeInterest,     // Lemma 8.
  kSocialNodeDistance,     // Lemma 9 / Eq. 19.
  kPoiMatch,               // Lemma 1 (sup_K superset).
  kRoadNodeMatch,          // Lemma 6 / Eq. 15.
  kPoiDistanceBound,       // Eq. 17 object form (lb of dist_RN(u_q, o_i)).
  kPairDistanceBound,      // Lemma 5 (lb of dist_RN(u, o_i) via pivots).
  kNumRules,               // Sentinel.
};

const char* PruneRuleName(PruneRule rule);

struct PruningAuditorOptions {
  /// Re-test every Nth event per rule (1 = every event). Brute-force
  /// re-tests run BFS / Dijkstra, so production-shaped audit runs want a
  /// stride; tests use 1 for determinism.
  uint32_t sample_period = 17;
  /// Node-level events re-test at most this many members of the pruned
  /// subtree (evenly strided, deterministic).
  int max_members_checked = 8;
  /// Abort with a diagnostic on the first violation (the GPSSN_AUDIT
  /// default). Tests set false and assert on violations() instead.
  bool abort_on_violation = true;
};

/// Sampling pruning-soundness recorder. Owns its own BFS / Dijkstra arenas;
/// not thread-safe — use one per processor, like the processor itself.
class PruningAuditor {
 public:
  /// Both indexes must be built over the same network and outlive the
  /// auditor.
  PruningAuditor(const PoiIndex* poi_index, const SocialIndex* social_index,
                 const PruningAuditorOptions& options = {});

  // --- Event hooks (called by GpssnProcessor at its prune sites). ---

  /// Object-level user prune (kUserInterest | kUserSocialDistance).
  void OnUserPruned(const QueryUserContext& ctx, UserId u, PruneRule rule);
  /// Node-level I_S prune (kSocialNodeInterest | kSocialNodeDistance).
  void OnSocialNodePruned(const QueryUserContext& ctx, SNodeId node,
                          PruneRule rule);
  /// Lemma 1: POI discarded as a ball center by the sup_K match score.
  void OnPoiMatchPruned(const QueryUserContext& ctx, PoiId poi);
  /// Lemma 6: I_R node discarded by its mask's match score.
  void OnRoadNodeMatchPruned(const QueryUserContext& ctx, RNodeId node);
  /// Eq. 17 object form: the traversal claimed dist_RN(u_q, poi) >= lb.
  void OnPoiDistanceBound(const QueryUserContext& ctx, PoiId poi, double lb);
  /// Lemma 5: refinement claimed dist_RN(user, center) >= lb.
  void OnPairDistanceBound(const QueryUserContext& ctx, UserId user,
                           PoiId center, double lb);

  // --- Outcome. ---

  int64_t events() const { return events_; }
  int64_t samples() const { return samples_; }
  int64_t violations() const {
    return static_cast<int64_t>(issues_.size());
  }
  const std::vector<AuditIssue>& issues() const { return issues_; }
  const PruningAuditorOptions& options() const { return options_; }

 private:
  /// Counts the event; true when this one is sampled for re-testing.
  bool Sample(PruneRule rule);
  /// Records (and, per options, aborts on) one unsound prune.
  void Report(PruneRule rule, int32_t node, std::string detail);
  /// Exact hop labels around ctx's issuer, bounded by τ−1 (cached across
  /// events of the same query).
  void EnsureIssuerBfs(const QueryUserContext& ctx);
  /// Users under an I_S node, via DFS.
  void CollectSubtreeUsers(SNodeId node, std::vector<UserId>* out) const;
  /// POIs under an I_R node, via DFS.
  void CollectSubtreePois(RNodeId node, std::vector<PoiId>* out) const;

  const PoiIndex* poi_index_;
  const SocialIndex* social_index_;
  PruningAuditorOptions options_;
  BfsEngine bfs_;
  DijkstraEngine engine_;
  PoiLocator locator_;
  UserId bfs_issuer_ = kInvalidUser;
  int bfs_bound_ = -1;
  std::array<uint64_t, static_cast<size_t>(PruneRule::kNumRules)> counters_{};
  int64_t events_ = 0;
  int64_t samples_ = 0;
  std::vector<AuditIssue> issues_;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_AUDIT_H_
