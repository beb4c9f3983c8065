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

struct QueryStats {
  double cpu_seconds = 0.0;
  IoStats io;

  // --- Social-network side (Fig. 7(a)/(b)).
  uint64_t social_nodes_visited = 0;
  uint64_t social_nodes_pruned_interest = 0;  // Lemma 8.
  uint64_t social_nodes_pruned_distance = 0;  // Lemma 9.
  uint64_t users_seen = 0;                    // Users reaching object level.
  uint64_t users_pruned_interest = 0;         // Lemma 3 / Corollary 1.
  uint64_t users_pruned_distance = 0;         // Lemma 4.
  uint64_t users_pruned_corollary2 = 0;       // Corollary 2 (refinement).
  uint64_t users_candidates = 0;              // Survivors.
  /// Users covered by index nodes pruned at index level (for index-level
  /// pruning power: fraction of all users never reaching object level).
  uint64_t users_pruned_at_index_level = 0;

  // --- Road-network side (Fig. 7(a)/(c)).
  uint64_t road_nodes_visited = 0;
  uint64_t road_nodes_pruned_match = 0;      // Lemma 6.
  uint64_t road_nodes_pruned_distance = 0;   // Lemma 7 / δ cut.
  uint64_t pois_seen = 0;
  uint64_t pois_pruned_match = 0;            // Lemma 1.
  uint64_t pois_pruned_distance = 0;         // Lemma 5.
  uint64_t pois_candidates = 0;
  uint64_t pois_pruned_at_index_level = 0;

  // --- Refinement (Fig. 7(d), Figs. 8-11).
  uint64_t groups_enumerated = 0;
  uint64_t pairs_examined = 0;     // (S, R) pairs actually evaluated.
  uint64_t exact_distance_evals = 0;
  bool truncated = false;          // A refinement cap was hit.

  // --- Per-phase wall time (attributes backend/cache wins to the phase
  // they land in; the four do not sum to cpu_seconds — exact_dist and
  // ball are subsets of refine).
  double descent_seconds = 0.0;     // Phase 1: synchronized index descent.
  double ball_seconds = 0.0;        // Ball materialization (B(o_i, r)).
  double refine_seconds = 0.0;      // Phase 2 total (includes the below).
  double exact_dist_seconds = 0.0;  // Exact user→POI distance evaluations.

  // --- Shared distance cache (roadnet/distance_cache.h), counted at
  // user-row granularity: a hit means one whole per-user distance
  // evaluation (one bounded Dijkstra / CH forward search) was skipped.
  uint64_t dist_cache_row_hits = 0;
  uint64_t dist_cache_row_misses = 0;

  // Fresh pairwise Interest_Score evaluations through the SocialScratch
  // memo, which PlanGroups builds whenever Corollary 2 runs over at most
  // kScratchMaxCandidates candidates (0 when the sparse kernels ran).
  // Bounded by n(n-1)/2 per query — each pair is scored at most once.
  uint64_t interest_pairs_scored = 0;

  // --- Ball materialization backend (roadnet/ch_range.h): total B(o, r)
  // evaluations and the subset answered by the CH range index instead of
  // bounded Dijkstra (0 on the Dijkstra backend). MergeFrom sums.
  uint64_t ball_queries = 0;
  uint64_t ball_range_engine_queries = 0;

  // --- Sharded serving (src/serving/): all 0 on the single-node path.
  // Refine requests the coordinator never sent because the shard's gather
  // lower bound could not beat the global incumbent (the cross-shard
  // Lemma-style prune), over the shards that held candidate centers.
  uint64_t skipped_shards = 0;
  uint64_t refined_shards = 0;
  // Transport envelopes exchanged for this query (requests + replies).
  uint64_t shard_msgs = 0;
  // Coordinator-side wall time per serving phase: scatter/gather round,
  // central planning (merge + Corollary 2 + group enumeration), and the
  // incumbent-pruned refine waves. Shard-side descent/ball/refine time
  // lands in the regular phase counters above via the merged shard stats.
  double serve_gather_seconds = 0.0;
  double serve_plan_seconds = 0.0;
  double serve_refine_seconds = 0.0;

  /// Page misses (the paper's "number of page accesses through a buffer").
  uint64_t PageAccesses() const { return io.page_misses; }

  /// Adds every counter (and cpu_seconds) of `other` into this struct;
  /// `truncated` ORs. Used by batch-level aggregation (core/executor.h).
  void MergeFrom(const QueryStats& other);

  std::string ToString() const;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_STATS_H_
