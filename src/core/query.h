// Copyright 2026 The gpssn Authors.
//
// The GP-SSN query answering algorithm (Algorithm 2): a level-by-level
// descent of the social index I_S, then of the POI index I_R, followed by
// refinement of the surviving candidate user/POI sets. Returns the pair
// (S, R) minimizing maxdist_RN(S, R) subject to every predicate of
// Definition 5.
//
// Every entry point runs the same three stages over one QueryPlan:
//   GATHER  the I_S and I_R descents over a scope (the two index roots on
//           a single node, a shard's subtrees when serving);
//   PLAN    Corollary 2 + group enumeration (PlanGroups, core/refinement.h);
//   REFINE  ball materialization, per-member distance rows, and the
//           ranked pair loop over (center, group) candidates.
// Execute/ExecuteTopK run all three; the serving shards run GATHER and
// REFINE while the coordinator runs PLAN (serving/coordinator.h).
//
// Exact by construction: every prune is sound on its own, so no query
// runs twice. The road-distance prune is Refine's incumbent (Lemma 7 over
// the issuer's exact distances, DESIGN.md §5). Answers are exact unless a
// refinement cap was hit, which is reported via QueryStats::truncated.

#ifndef GPSSN_CORE_QUERY_H_
#define GPSSN_CORE_QUERY_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/audit.h"
#include "core/options.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/distance_backend.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"

namespace gpssn {

/// A GP-SSN answer: the user group S, the ball center o_i, and the POI set
/// R = B(o_i, r).
struct GpssnAnswer {
  bool found = false;
  std::vector<UserId> users;  // S, sorted, contains the issuer.
  PoiId center = kInvalidPoi;
  std::vector<PoiId> pois;    // R, sorted.
  double max_dist = kInfDistance;  // maxdist_RN(S, R), the objective.
};

/// An answer plus its DISCOVERY RANK: the position the refinement pair
/// loop finds it at. Centers are visited in ascending (exact issuer-side
/// objective contribution `center_worst`, center id) order, groups in
/// ascending index order within a center, and the first-encountered
/// minimum wins. Ranking answers by the lex key
/// (max_dist, center_worst, center, group_index) therefore reproduces the
/// single-node winner however the centers are split across shards.
struct RankedAnswer {
  GpssnAnswer answer;
  double center_worst = kInfDistance;  // max_{o∈ball} dist(u_q, o).
  int64_t group_index = -1;            // Into the planned group list.
};

/// The discovery-rank order of RankedAnswer: true when `a` ranks strictly
/// before `b`. Orders the refinement's top-k list and the serving
/// coordinator's merge of shard answers.
bool RanksBefore(const RankedAnswer& a, const RankedAnswer& b);

/// Which index subtrees a serving shard owns: the shard's candidate scope
/// is the union of users under `social_roots` (I_S partition-tree nodes)
/// and POIs under `road_roots` (I_R R*-tree nodes). An empty scope is a
/// valid (idle) shard. Subtree lists are in left-to-right tree order.
struct ShardScope {
  std::vector<SNodeId> social_roots;
  std::vector<RNodeId> road_roots;
};

/// Scatter-phase result of one shard: the candidate users/POIs surviving
/// the index prunes inside the shard's scope, plus a lower bound on any
/// objective achievable with a center in this shard (min over candidate
/// POIs of the issuer-side distance lower bound, Lemma 5 lifted to shard
/// granularity). kInfDistance when the shard holds no candidate center.
struct ShardCandidates {
  /// Users in I_S leaf-traversal (left-to-right) order — the same relative
  /// order Execute() discovers them in, so concatenating the shards'
  /// lists in partition order reproduces the single-node candidate order
  /// (which group enumeration, and therefore tie-breaking, depends on).
  std::vector<UserId> users;
  std::vector<PoiId> pois;  // Sorted ascending (order is refinement-free).
  double lower_bound = kInfDistance;
};

/// Refine-phase result of one shard: its discovery-rank-first answer with
/// objective <= the incumbent (answer.found=false when there is none).
using ShardRefineResult = RankedAnswer;

/// Query processor bound to one pair of indexes. Owns reusable Dijkstra /
/// BFS arenas; not thread-safe (one processor per thread).
class GpssnProcessor {
 public:
  /// Both indexes must be built over the same SpatialSocialNetwork and
  /// must outlive the processor. In GPSSN_AUDIT builds the constructor
  /// additionally runs the structural validators of core/audit.h over both
  /// indexes (aborting with a node-level diagnostic on corruption) and
  /// installs a default sampling PruningAuditor used whenever
  /// QueryOptions::auditor is null.
  GpssnProcessor(const PoiIndex* poi_index, const SocialIndex* social_index);
  ~GpssnProcessor();

  /// Answers one GP-SSN query. On success `stats` (optional) carries CPU
  /// time, page I/Os, and pruning counters. Returns InvalidArgument for
  /// malformed queries (bad issuer, τ outside [1, |users|], negative or
  /// NaN thresholds, an unknown metric, radius outside the index's
  /// [r_min, r_max] envelope), DeadlineExceeded when `options.deadline`
  /// fires mid-query, and Cancelled when `options.cancel` is raised (both
  /// polled cooperatively at descent-loop and refinement boundaries).
  Result<GpssnAnswer> Execute(const GpssnQuery& query,
                              const QueryOptions& options,
                              QueryStats* stats = nullptr);

  /// Top-k extension: the k best (S, R) pairs ordered by ascending
  /// maxdist_RN (fewer when fewer feasible pairs exist). Validates the
  /// query exactly as Execute() does.
  Result<std::vector<GpssnAnswer>> ExecuteTopK(const GpssnQuery& query, int k,
                                               const QueryOptions& options,
                                               QueryStats* stats = nullptr);

  /// Serving scatter phase: the Gather stage over the index subtrees in
  /// `scope`, returning the surviving candidate users/POIs plus the
  /// shard's objective lower bound. The same Gather as Execute(), so the
  /// shards of a cluster together gather exactly what a single node
  /// gathers. Deadline/cancel are polled as in Execute().
  Result<ShardCandidates> GatherCandidates(const GpssnQuery& query,
                                           const QueryOptions& options,
                                           const ShardScope& scope,
                                           QueryStats* stats = nullptr);

  /// Serving refine phase: the Refine stage over the coordinator-supplied
  /// candidate `groups` (the planned group list, in enumeration order) and
  /// candidate `centers`, returning the discovery-rank-first feasible
  /// answer with objective <= `incumbent` (kInfDistance for an unbounded
  /// search). The same pair loop as Execute(), so per-pair objectives are
  /// bit-identical to the single-node run (rows are bound-tagged; values
  /// are bound-independent where finite). An answer TYING the incumbent is
  /// reported — it may still win the coordinator's rank comparison.
  /// Returns InvalidArgument for a center outside [0, |POIs|) or a member
  /// outside [0, |users|).
  Result<ShardRefineResult> RefineCandidates(
      const GpssnQuery& query, const QueryOptions& options,
      const std::vector<PoiId>& centers,
      const std::vector<std::vector<UserId>>& groups, double incumbent,
      QueryStats* stats = nullptr);

 private:
  /// The state one query carries through Gather → Plan → Refine.
  struct QueryPlan {
    QueryPlan(const GpssnQuery& query, const SocialIndex& social_index,
              const PoiIndex& poi_index, uint32_t buffer_pool_pages)
        : ctx(query, social_index),
          pool(buffer_pool_pages, social_index.num_pages(),
               poi_index.num_pages()) {}

    QueryUserContext ctx;  // The query and the issuer's pruning bounds.
    BufferPool pool;       // Page buffer behind the I/O metric.
    // Gather: candidate users in I_S leaf-traversal order, candidate ball
    // centers as (the issuer's Eq. 17 lower bound, id), in the order
    // Gather found them, and the least of those bounds.
    std::vector<UserId> users;
    std::vector<std::pair<double, PoiId>> pois;
    double lower_bound = kInfDistance;
    // Plan: the candidate groups.
    std::vector<std::vector<UserId>> groups;
  };

  /// InvalidArgument unless `query` is well formed for these indexes.
  Status ValidateQuery(const GpssnQuery& query) const;

  /// The frame of every entry point: resets `*stats` (a local when null),
  /// then times `stages(&plan, stats)` over a fresh plan for `query`, the
  /// plan's construction included, and adds the plan's page I/O and the
  /// elapsed time into the stats. Returns what `stages` returns.
  template <typename Stages>
  Status RunPlanned(const GpssnQuery& query, const QueryOptions& options,
                    QueryStats* stats, Stages&& stages);

  /// Gather stage: descends I_S and then I_R from the roots in `scope`
  /// (Algorithm 2 lines 1-28), filling plan->users/pois/lower_bound.
  /// Returns Cancelled/DeadlineExceeded when interrupted.
  Status Gather(const QueryOptions& options, const ShardScope& scope,
                QueryPlan* plan, QueryStats* stats);

  /// Refine stage: finds the ball of every center in plan->pois (sorting
  /// them by bound, then id) as a prefix of I_R's stored ball, keeps the
  /// centers whose keyword union the issuer matches, orders them by the
  /// issuer's exact distances, and runs the pair loop over `groups`
  /// (plan->groups on a single node, the coordinator's list on a shard).
  /// `best` receives up to `top_k` answers in discovery-rank order; only
  /// answers with objective <= `incumbent` are kept.
  Status Refine(const QueryOptions& options,
                const std::vector<std::vector<UserId>>& groups, int top_k,
                double incumbent, QueryPlan* plan, QueryStats* stats,
                std::vector<RankedAnswer>* best);

  /// Engine for `options.distance_backend` (the built-in Dijkstra engine
  /// when null). Plugged-backend engines are cached so repeated queries
  /// against the same backend reuse one set of arenas.
  DistanceEngine* EngineFor(const QueryOptions& options);

  /// The caller's auditor, else the GPSSN_AUDIT default (null in normal
  /// builds).
  PruningAuditor* AuditorFor(const QueryOptions& options) const;

  /// One member's entry in the per-center table: its Lemma 5 bound and
  /// θ match at the center being visited, valid when `visit` is that
  /// center's visit number. `match` is -1 until first asked.
  struct CenterCell {
    double lb = 0.0;
    uint32_t visit = 0;
    int8_t match = -1;
  };

  /// A candidate center whose ball the issuer matches. Its ball B(c, r)
  /// is the first `size` entries of I_R's B(c, r_max), and its keyword
  /// union the running mask of the last of them (PoiIndex::ball_mask).
  struct RefineCenter {
    double worst;  // Exact issuer-side objective contribution.
    PoiId id;
    uint32_t size;
  };

  /// A member's distance row: its user, the engine row its search grows
  /// through (-1 until a read opens one), and the bound that search decides
  /// every entry under (DistanceEngine::RowDecidedBound after its last
  /// growth; -kInfDistance before).
  struct RefineRow {
    UserId user;
    int32_t search = -1;
    double decided = -kInfDistance;
  };

  /// Flat stamped scratch for the refinement phase, reused across queries:
  /// generation-stamped slot and member arrays, each member's list of the
  /// groups that hold it, the matched centers, flat row-major distance and
  /// proof tables, the per-center member table and dead-group bitmap, so a
  /// warm refinement allocates nothing per center or pair.
  struct RefineScratch {
    uint32_t generation = 0;
    // POI id -> slot in `needed` (valid when poi_stamp matches).
    std::vector<uint32_t> poi_stamp;
    std::vector<int32_t> poi_slot;
    std::vector<PoiId> needed;                  // Slot -> POI id.
    std::vector<EdgePosition> needed_positions; // Slot -> position.
    // The needed POIs in ascending id order, the order DistanceCache rows
    // keep, with each one's slot, and one row's items in that order, as
    // entries and tags (cache only).
    std::vector<PoiId> cache_pois;
    std::vector<int32_t> cache_slots;
    std::vector<double> cache_dists;
    std::vector<double> cache_tags;
    // Members: the issuer and every user of the refined groups, numbered
    // 0 .. num_members-1 once per query. User id -> member (valid when
    // user_stamp matches), and member -> its distance row (-1 until its
    // first use).
    std::vector<uint32_t> user_stamp;
    std::vector<int32_t> user_member;
    int32_t num_members = 0;
    std::vector<int32_t> member_row;
    // Member m's groups, by ascending index into the refined list, are
    // member_groups[member_group_begin[m], member_group_begin[m + 1]).
    std::vector<uint32_t> member_group_begin;
    std::vector<uint32_t> member_groups;
    // The matched centers, in pair-loop order once ranked.
    std::vector<RefineCenter> centers;
    // Member -> its entry at the visited center, filled lazily.
    std::vector<CenterCell> at_center;
    // Bit g set: group g is dead at the visited center, because one of its
    // members failed its Lemma 5 bound or θ match there. The bits past the
    // last group are set too.
    std::vector<uint64_t> dead_groups;
    // The distance rows, one per member in first-use order. Row r holds
    // tables[2r·|needed|, (2r+1)·|needed|), its entries, then as many
    // tags: the largest bound each entry has been decided under
    // (-kInfDistance until then). An entry d tagged p is the exact
    // distance when d <= p, and proves "distance > p" otherwise.
    std::vector<RefineRow> rows;
    std::vector<double> tables;
    // One read's slots (the visited center's ball, or every slot for the
    // issuer), and those of them the row does not decide yet.
    std::vector<int32_t> read_slots;
    std::vector<int32_t> wanted;

    /// Starts a query: bumps the generation (invalidating every slot and
    /// member number in O(1)) and clears the flat arrays, keeping their
    /// capacity.
    void BeginQuery(size_t num_users, size_t num_pois);

    /// Numbers `issuer` and then every user of `groups` as members, and
    /// lists each member's groups.
    void AddMembers(UserId issuer,
                    const std::vector<std::vector<UserId>>& groups);
  };

  const PoiIndex* poi_index_;
  const SocialIndex* social_index_;
  BfsEngine bfs_;
  // Built-in backend: bounded Dijkstra over the indexes' road network
  // (bit-exact with the seed query path).
  std::unique_ptr<DistanceBackend> default_backend_;
  std::unique_ptr<DistanceEngine> default_engine_;
  // Engine created from the last non-null options.distance_backend.
  const DistanceBackend* plugged_source_ = nullptr;
  std::unique_ptr<DistanceEngine> plugged_engine_;
  RefineScratch scratch_;
  // Per-query social scratch (candidate index, adjacency bitsets,
  // pairwise-score memo) that PlanGroups rebuilds whenever Corollary 2
  // runs over at most kScratchMaxCandidates candidates.
  SocialScratch social_scratch_;
  // Non-null only in GPSSN_AUDIT builds: the default pruning-soundness
  // auditor (abort-on-violation) used when the caller supplies none.
  std::unique_ptr<PruningAuditor> default_auditor_;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_QUERY_H_
