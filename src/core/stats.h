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
// X(type, name, merge, kind), in declaration order. The struct body,
// MergeFrom, ChargeWorkFrom and ToString are generated from it, so a new
// row merges, prints, crosses the serving wire (a trivially copyable
// blob) and reaches BatchStats with no other edit.
//   merge: Sum adds (IoStats adds both of its counters); Or ORs a flag.
//   kind:  Funnel rows count the candidates each pruning rule visited,
//          pruned or kept (the Fig. 7 numbers); Work rows measure cost.
#define GPSSN_QUERY_STATS(X)                                                 \
  X(double, cpu_seconds, Sum, Work)                                          \
  X(IoStats, io, Sum, Work)                                                  \
  /* --- Social-network side (Fig. 7(a)/(b)). */                             \
  X(uint64_t, social_nodes_visited, Sum, Funnel)                             \
  X(uint64_t, social_nodes_pruned_interest, Sum, Funnel) /* Lemma 8. */      \
  X(uint64_t, social_nodes_pruned_distance, Sum, Funnel) /* Lemma 9. */      \
  X(uint64_t, users_seen, Sum, Funnel) /* Users reaching object level. */    \
  X(uint64_t, users_pruned_interest, Sum, Funnel) /* Lemma 3 / Corollary 1. */ \
  X(uint64_t, users_pruned_distance, Sum, Funnel) /* Lemma 4. */             \
  /* Corollary 2 (refinement). */                                            \
  X(uint64_t, users_pruned_corollary2, Sum, Funnel)                          \
  X(uint64_t, users_candidates, Sum, Funnel) /* Survivors. */                \
  /* Users covered by index nodes pruned at index level (for index-level     \
     pruning power: fraction of all users never reaching object level). */   \
  X(uint64_t, users_pruned_at_index_level, Sum, Funnel)                      \
  /* --- Road-network side (Fig. 7(a)/(c)). */                               \
  X(uint64_t, road_nodes_visited, Sum, Funnel)                               \
  X(uint64_t, road_nodes_pruned_match, Sum, Funnel) /* Lemma 6. */           \
  X(uint64_t, road_nodes_pruned_distance, Sum, Funnel) /* Lemma 7 / δ cut. */ \
  X(uint64_t, pois_seen, Sum, Funnel)                                        \
  X(uint64_t, pois_pruned_match, Sum, Funnel) /* Lemma 1. */                 \
  X(uint64_t, pois_pruned_distance, Sum, Funnel) /* Lemma 5. */              \
  X(uint64_t, pois_candidates, Sum, Funnel)                                  \
  X(uint64_t, pois_pruned_at_index_level, Sum, Funnel)                       \
  /* --- Refinement (Fig. 7(d), Figs. 8-11). */                              \
  X(uint64_t, groups_enumerated, Sum, Funnel)                                \
  /* (S, R) pairs actually evaluated. */                                     \
  X(uint64_t, pairs_examined, Sum, Work)                                     \
  X(uint64_t, exact_distance_evals, Sum, Work)                               \
  X(bool, truncated, Or, Work) /* A refinement cap was hit. */               \
  /* Reruns without the δ cut, which may have removed the optimum            \
     (GpssnProcessor::ExecuteTopK); their work is charged to this query. */  \
  X(uint64_t, delta_reruns, Sum, Work)                                       \
  /* --- Per-phase wall time (attributes backend/cache wins to the phase     \
     they land in; the four do not sum to cpu_seconds — exact_dist and       \
     ball are subsets of refine). Phase 1: synchronized index descent. */    \
  X(double, descent_seconds, Sum, Work)                                      \
  X(double, ball_seconds, Sum, Work) /* Ball materialization (B(o_i, r)). */ \
  /* Phase 2 total (includes the below). */                                  \
  X(double, refine_seconds, Sum, Work)                                       \
  /* Exact user→POI distance evaluations. */                                 \
  X(double, exact_dist_seconds, Sum, Work)                                   \
  /* --- Shared distance cache (roadnet/distance_cache.h), counted at        \
     user-row granularity: a hit means one whole per-user distance           \
     evaluation (one bounded Dijkstra / CH forward search) was skipped. */   \
  X(uint64_t, dist_cache_row_hits, Sum, Work)                                \
  X(uint64_t, dist_cache_row_misses, Sum, Work)                              \
  /* Fresh pairwise Interest_Score evaluations through the SocialScratch     \
     memo, which PlanGroups builds whenever Corollary 2 runs over at most    \
     kScratchMaxCandidates candidates (0 when the sparse kernels ran).       \
     Bounded by n(n-1)/2 per plan — each pair is scored at most once. */     \
  X(uint64_t, interest_pairs_scored, Sum, Work)                              \
  /* --- Ball materialization: B(o, r) reads from I_R's stored balls         \
     (PoiAug::ball), one per candidate center; ball_seconds times them.      \
     No query searches the road network for a ball, so nothing increments    \
     ball_range_engine_queries: it always reads 0 and stays only because     \
     perfbench reads it (roadnet.range_engine_share). */                     \
  X(uint64_t, ball_queries, Sum, Work)                                       \
  X(uint64_t, ball_range_engine_queries, Sum, Work)                          \
  /* --- Sharded serving (src/serving/): all 0 on the single-node path.      \
     Refine requests the coordinator never sent because the shard's gather   \
     lower bound could not beat the global incumbent (the cross-shard        \
     Lemma-style prune), over the shards that held candidate centers. */     \
  X(uint64_t, skipped_shards, Sum, Work)                                     \
  X(uint64_t, refined_shards, Sum, Work)                                     \
  /* Transport envelopes exchanged for this query (requests + replies). */   \
  X(uint64_t, shard_msgs, Sum, Work)                                         \
  /* Coordinator-side wall time per serving phase: scatter/gather round,     \
     central planning (merge + Corollary 2 + group enumeration), and the     \
     incumbent-pruned refine waves. Shard-side descent/ball/refine time      \
     lands in the regular phase counters above via the merged shard          \
     stats. */                                                               \
  X(double, serve_gather_seconds, Sum, Work)                                 \
  X(double, serve_plan_seconds, Sum, Work)                                   \
  X(double, serve_refine_seconds, Sum, Work)

struct QueryStats {
#define GPSSN_STATS_DECLARE(type, name, merge, kind) type name{};
  GPSSN_QUERY_STATS(GPSSN_STATS_DECLARE)
#undef GPSSN_STATS_DECLARE

  /// Page misses (the paper's "number of page accesses through a buffer").
  uint64_t PageAccesses() const { return io.page_misses; }

  /// Applies every row's merge rule with `other`. Used by batch-level
  /// aggregation (core/executor.h) and the serving coordinator.
  void MergeFrom(const QueryStats& other);

  /// The δ-fallback charge: merges only the Work rows of `rerun`, so this
  /// query keeps its own Funnel rows (they describe the indexed fast path)
  /// and pays for all of the rerun's work.
  void ChargeWorkFrom(const QueryStats& rerun);

  /// Every row as `name=value`, space-separated, in table order (`io`
  /// prints as io.page_misses and io.logical_accesses).
  std::string ToString() const;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_STATS_H_
