// Copyright 2026 The gpssn Authors.
//
// Per-query measurements: CPU time, the paper's I/O metric (page accesses),
// and per-rule pruning counters backing the pruning-power experiments of
// Figure 7.

#ifndef GPSSN_CORE_STATS_H_
#define GPSSN_CORE_STATS_H_

#include <cstdint>
#include <string>

#include "common/pagestore.h"

namespace gpssn {

// The QueryStats schema: the one list of its members, one row each,
// X(type, name, merge), in declaration order. The struct body, MergeFrom
// and ToString are generated from it, so a new row merges, prints, travels
// in a serving shard's reply and reaches BatchStats with no other edit.
//   merge: Sum adds (IoStats adds both of its counters); Or ORs a flag.
#define GPSSN_QUERY_STATS(X)                                                 \
  X(double, cpu_seconds, Sum)                                                \
  X(IoStats, io, Sum)                                                        \
  /* --- Social-network side (Fig. 7(a)/(b)). */                             \
  X(uint64_t, social_nodes_visited, Sum)                                     \
  X(uint64_t, social_nodes_pruned_interest, Sum) /* Lemma 8. */              \
  X(uint64_t, social_nodes_pruned_distance, Sum) /* Lemma 9. */              \
  X(uint64_t, users_seen, Sum) /* Users reaching object level. */            \
  X(uint64_t, users_pruned_interest, Sum) /* Lemma 3 / Corollary 1. */       \
  X(uint64_t, users_pruned_distance, Sum) /* Lemma 4. */                     \
  /* Corollary 2 (refinement). */                                            \
  X(uint64_t, users_pruned_corollary2, Sum)                                  \
  X(uint64_t, users_candidates, Sum) /* Survivors. */                        \
  /* Users covered by index nodes pruned at index level (for index-level     \
     pruning power: fraction of all users never reaching object level). */   \
  X(uint64_t, users_pruned_at_index_level, Sum)                              \
  /* --- Road-network side (Fig. 7(a)/(c)). */                               \
  X(uint64_t, road_nodes_visited, Sum)                                       \
  X(uint64_t, road_nodes_pruned_match, Sum) /* Lemma 6. */                   \
  X(uint64_t, pois_seen, Sum)                                                \
  X(uint64_t, pois_pruned_match, Sum) /* Lemma 1. */                         \
  /* Candidate centers Refine rules out by Lemma 7 against the incumbent:    \
     matched centers whose exact issuer distances fail it, plus the          \
     candidates never materialized because the pivot key (Eq. 17) of the     \
     first of them in key order fails it. */                                 \
  X(uint64_t, pois_pruned_distance, Sum)                                     \
  X(uint64_t, pois_candidates, Sum)                                          \
  X(uint64_t, pois_pruned_at_index_level, Sum)                               \
  /* --- Refinement (Fig. 7(d), Figs. 8-11). */                              \
  X(uint64_t, groups_enumerated, Sum)                                        \
  /* (S, R) pairs that reach the exact stage, where each either kills the    \
     first member whose exact share fails or is kept. */                     \
  X(uint64_t, pairs_examined, Sum)                                           \
  /* Lemma 5 pivot bounds the pair loop evaluated: at most one per           \
     (group member, visited center), however many groups share it. */        \
  X(uint64_t, pair_bounds, Sum)                                              \
  /* Distance-row searches opened: one per member row whose reads some       \
     cached item could not decide (every row read, without a cache), and on  \
     CH one more each time a row is read again after a batch added targets.  \
     A member's row is read once per visited center, at the first group      \
     that brings it to the exact stage. A Dijkstra search then grows only    \
     as far as the row's reads need. */                                      \
  X(uint64_t, exact_distance_evals, Sum)                                     \
  /* The group enumeration hit QueryOptions::max_groups. */                  \
  X(bool, truncated, Or)                                                     \
  /* --- Per-phase wall time (attributes backend/cache wins to the phase     \
     they land in; they do not sum to cpu_seconds — ball and the rows after  \
     refine are parts of refine, though on a cluster the two PlanGroups rows \
     are parts of serve_plan_seconds). Phase 1: index descent. */            \
  X(double, descent_seconds, Sum)                                            \
  X(double, ball_seconds, Sum) /* Ball materialization (B(o_i, r)). */       \
  /* Phase 2 total (includes the below). */                                  \
  X(double, refine_seconds, Sum)                                             \
  /* Exact user→POI distances: opening and growing the issuer's and the    \
     pair loop's member rows, and storing them in the cache. */              \
  X(double, exact_dist_seconds, Sum)                                         \
  /* PlanGroups: Corollary 2 (with the SocialScratch build), then the        \
     group enumeration. */                                                   \
  X(double, corollary2_seconds, Sum)                                         \
  X(double, enumerate_seconds, Sum)                                          \
  /* Refine's center loop over (center, group) pairs, including the member   \
     rows it computes (part of exact_dist_seconds). */                       \
  X(double, pair_loop_seconds, Sum)                                          \
  /* --- Shared distance cache (roadnet/distance_cache.h), counted at        \
     user-row granularity: a hit is a row whose reads the cached items       \
     all decided, so it opened no search; a miss opened one. */              \
  X(uint64_t, dist_cache_row_hits, Sum)                                      \
  X(uint64_t, dist_cache_row_misses, Sum)                                    \
  /* Fresh pairwise Interest_Score evaluations: Corollary 2's, and the       \
     enumerator's through the SocialScratch memo, which PlanGroups builds    \
     whenever Corollary 2 runs over at most kScratchMaxCandidates            \
     candidates (the sparse enumerator's are not counted). Through the       \
     memo each pair is scored at most once per plan. */                      \
  X(uint64_t, interest_pairs_scored, Sum)                                    \
  /* --- Ball materialization: B(o, r) is a prefix of I_R's stored ball      \
     (PoiIndex::BallPrefix), one per candidate center Refine takes, in       \
     pivot-key order, before the next key fails Lemma 7 (each batch stops    \
     there too), so the rest are never materialized. ball_seconds times the  \
     prefix searches, the match tests, the matched balls' slots and the key  \
     heap's pops. No query searches the road network for a ball, so          \
     nothing increments ball_range_engine_queries: it always reads 0 and     \
     stays only because perfbench reads it (roadnet.range_engine_share). */  \
  X(uint64_t, ball_queries, Sum)                                             \
  X(uint64_t, ball_range_engine_queries, Sum)                                \
  /* --- Sharded serving (src/serving/): all 0 on the single-node path.      \
     Refine requests the coordinator never sent because the shard's gather   \
     lower bound could not beat the global incumbent (the cross-shard        \
     Lemma-style prune), over the shards that held candidate centers. */     \
  X(uint64_t, skipped_shards, Sum)                                           \
  X(uint64_t, refined_shards, Sum)                                           \
  /* Shard messages exchanged for this query (requests + replies). */        \
  X(uint64_t, shard_msgs, Sum)                                               \
  /* Coordinator-side wall time per serving phase: scatter/gather round,     \
     central planning (merge + Corollary 2 + group enumeration), and the     \
     incumbent-pruned refine waves. Shard-side descent/ball/refine time      \
     lands in the regular phase counters above via the merged shard          \
     stats. */                                                               \
  X(double, serve_gather_seconds, Sum)                                       \
  X(double, serve_plan_seconds, Sum)                                         \
  X(double, serve_refine_seconds, Sum)

struct QueryStats {
#define GPSSN_STATS_DECLARE(type, name, merge) type name{};
  GPSSN_QUERY_STATS(GPSSN_STATS_DECLARE)
#undef GPSSN_STATS_DECLARE

  /// Page misses (the paper's "number of page accesses through a buffer").
  uint64_t PageAccesses() const { return io.page_misses; }

  /// Applies every row's merge rule with `other`. Used by batch-level
  /// aggregation (core/executor.h) and the serving coordinator.
  void MergeFrom(const QueryStats& other);

  /// Every row as `name=value`, space-separated, in table order (`io`
  /// prints as io.page_misses and io.logical_accesses).
  std::string ToString() const;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_STATS_H_
