// Copyright 2026 The gpssn Authors.
//
// Query parameters (Definition 5 / Table 3) and processor options,
// including per-rule pruning switches used by the ablation benchmarks.

#ifndef GPSSN_CORE_OPTIONS_H_
#define GPSSN_CORE_OPTIONS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "roadnet/types.h"

namespace gpssn {

class PruningAuditor;   // core/audit.h
class DistanceBackend;  // roadnet/distance_backend.h
class DistanceCache;    // roadnet/distance_cache.h

/// Cooperative per-query deadline. The processor polls Expired() at its
/// descent-loop, index-node, and refinement boundaries and abandons the
/// query with a DeadlineExceeded status once it fires. Default-constructed
/// deadlines never expire; cheap to copy.
class QueryDeadline {
 public:
  QueryDeadline() = default;

  /// A deadline `seconds` from now (wall clock, monotonic).
  static QueryDeadline After(double seconds) {
    QueryDeadline d;
    d.armed_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  bool armed() const { return armed_; }
  bool Expired() const {
    return armed_ && std::chrono::steady_clock::now() >= at_;
  }
  /// The absolute expiry instant (meaningful only when armed); feeds the
  /// scheduler's earliest-deadline-first task priority.
  std::chrono::steady_clock::time_point at() const { return at_; }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// How the common-interest score between two users is computed. The paper
/// uses the dot product (Eq. 1) and names Jaccard similarity and Hamming
/// distance as future work; all three are supported:
///   kDotProduct — Eq. 1;
///   kJaccard    — weighted Jaccard Σ_f min(w_f) / Σ_f max(w_f), in [0, 1];
///   kHamming    — 1 − hamming(supp(a), supp(b)) / d over the topic
///                 supports, in [0, 1] (similarity form, so the γ "at
///                 least" predicate applies uniformly).
enum class InterestMetric {
  kDotProduct,
  kJaccard,
  kHamming,
};

/// One GP-SSN query (Definition 5).
struct GpssnQuery {
  /// The query issuer u_q; always a member of the answer set S.
  UserId issuer = kInvalidUser;
  /// Group size τ (number of users in S, issuer included).
  int tau = 5;
  /// Interest-score threshold γ between any two users of S.
  double gamma = 0.3;
  /// Metric behind γ. Note Jaccard scores live in [0, 1].
  InterestMetric metric = InterestMetric::kDotProduct;
  /// Matching-score threshold θ between each user of S and the POI set R.
  double theta = 0.3;
  /// Spatial radius r: answer POI sets are road-network balls B(o_i, r)
  /// (pairwise distance < 2r by the triangle inequality, per Def. 5).
  double radius = 2.0;
};

/// Individual pruning rules, switchable for ablation studies. All default
/// on; disabling a rule never changes answers, only cost. The road-distance
/// prunes (Lemma 5 per pair, Lemma 7 against the incumbent) are part of
/// Refine's search and always run.
struct PruningFlags {
  bool interest_score = true;   // Lemma 3 / Corollary 1 / Lemma 8.
  bool social_distance = true;  // Lemma 4 / Lemma 9.
  bool match_score = true;      // Lemma 1 / Lemma 6.
};

/// Processor knobs. The social kernel is not one: PlanGroups
/// (core/refinement.h) picks it from the candidate count and whether
/// Corollary 2 runs, and every kernel computes the same scores.
struct QueryOptions {
  PruningFlags pruning;
  /// LRU buffer pool capacity (pages) for the I/O metric.
  uint32_t buffer_pool_pages = 64;
  /// Refinement safety caps (exact answers are unaffected unless a cap is
  /// hit, which is reported in QueryStats::truncated): the groups the plan
  /// enumerates, and the EXACT distance evaluations in refinement.
  static constexpr int64_t max_groups = 100000;
  static constexpr int64_t max_refine_pairs = 100000;
  /// Cooperative deadline (see QueryDeadline). Unarmed by default.
  QueryDeadline deadline;
  /// Optional external cancel flag (e.g. batch shutdown), polled at the
  /// same loop boundaries as the deadline; fires a Cancelled status. The
  /// pointee must outlive the query.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional exact-distance backend (roadnet/distance_backend.h). Null
  /// selects the processor's built-in bounded Dijkstra (bit-exact seed
  /// behaviour); a CH backend accelerates refinement's user→ball-member
  /// distance evaluations on large road networks. The backend is shared
  /// and immutable (the processor creates a private engine from it); the
  /// pointee must outlive every query using it.
  const DistanceBackend* distance_backend = nullptr;
  /// Optional shared cross-query distance cache (roadnet/distance_cache.h):
  /// one entry per user holding that user's (poi → distance, tag) items,
  /// read and written a whole needed-POI row at a time under one lock, and
  /// evicted whole, least recently used first, within a budget counted in
  /// (user, POI) items. QueryStats' dist_cache_row_* count rows, a hit
  /// being a row whose reads the cached items all decided; the cache's own
  /// hits and misses count lookups that found every item or not; and
  /// insertions, evictions and entries count items. Thread-safe: one cache
  /// may be shared by all workers of a batch executor. Null disables
  /// caching. The pointee must outlive the query.
  /// GpssnDatabase::AddPoi leaves the road graph and every existing POI id
  /// as they are, so cached rows stay valid across it.
  DistanceCache* distance_cache = nullptr;
  /// Optional pruning-soundness auditor (core/audit.h): the processor
  /// notifies it on every pruned candidate and it re-tests a sample against
  /// the brute-force predicates. Null disables auditing; GPSSN_AUDIT builds
  /// install a per-processor default when this is null. Not thread-safe —
  /// do not share one auditor across concurrent queries; a query notifies
  /// it only from the thread running the query. The pointee must outlive
  /// the query.
  PruningAuditor* auditor = nullptr;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_OPTIONS_H_
