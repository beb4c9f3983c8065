// Copyright 2026 The gpssn Authors.
//
// Per-query social scoring scratch over the surviving candidate users:
// a candidate index, candidate-local adjacency bitsets and a triangular
// pairwise Interest_Score memo. PlanGroups (core/refinement.h) builds it
// whenever Corollary 2 runs over at most kScratchMaxCandidates candidates,
// and shares it between ApplyCorollary2 and the ESU group enumerator, so:
//
//   - every pairwise Interest_Score (Eq. 1) is evaluated at most once per
//     query, by UserSimilarity (core/scores.h) on the network's interest
//     rows — the same function, hence the same bits, as every other path;
//   - ESU connectivity / extension tests become word-parallel
//     AND / ANDNOT loops over candidate-local adjacency bitsets instead of
//     per-edge CSR probes.
//
// Candidates are held sorted by user id, so ascending bitset iteration
// reproduces the CSR Friends() visit order and group enumeration emits the
// exact same group sequence as the sparse path.
//
// Not thread-safe: one scratch serves one query at a time, on the thread
// running it (Build and PairPasses mutate state).

#ifndef GPSSN_CORE_SOCIAL_SCRATCH_H_
#define GPSSN_CORE_SOCIAL_SCRATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "socialnet/social_graph.h"

namespace gpssn {

class SocialScratch {
 public:
  SocialScratch() = default;

  /// Rebuilds the scratch for one query over `candidates` (unique user
  /// ids; any order — they are sorted internally). Reuses buffers across
  /// queries. Records social.interests_version() for staleness checks.
  void Build(const SocialNetwork& social, const GpssnQuery& query,
             std::span<const UserId> candidates);

  bool built() const { return built_; }

  /// True when the underlying network's interest vectors changed after
  /// Build (SetInterests / WithInterests bump interests_version). A stale
  /// scratch must not serve another query.
  bool StaleFor(const SocialNetwork& social) const {
    return !built_ || &social != social_ ||
           social.interests_version() != built_version_;
  }

  int size() const { return static_cast<int>(users_.size()); }
  UserId UserAt(int i) const { return users_[i]; }
  /// Candidate index of user `u`, or -1 when u is not a candidate.
  int IndexOf(UserId u) const {
    return index_stamp_[u] == generation_ ? index_of_[u] : -1;
  }

  /// Interest vector of candidate `i` (a view into the network).
  std::span<const double> Row(int i) const {
    return social_->Interests(users_[i]);
  }

  /// Memoized pairwise predicate Interest_Score(i, j) >= γ under the
  /// query's metric. Each unordered pair is scored at most once per query.
  bool PairPasses(int i, int j);

  /// Fresh (non-memoized) pair evaluations since Build.
  uint64_t pairs_scored() const { return pairs_scored_; }

  // --- Candidate-local adjacency (one n-bit row per candidate).
  size_t adj_words() const { return adj_words_; }
  const uint64_t* AdjacencyRow(int i) const {
    return adj_.data() + static_cast<size_t>(i) * adj_words_;
  }

 private:
  size_t TriIndex(int i, int j) const;  // Requires i < j.

  bool built_ = false;
  const SocialNetwork* social_ = nullptr;
  uint64_t built_version_ = 0;
  InterestMetric metric_ = InterestMetric::kDotProduct;
  double gamma_ = 0.0;

  std::vector<UserId> users_;  // Sorted ascending.
  // User id -> candidate index, generation-stamped (O(1) invalidation).
  uint32_t generation_ = 0;
  std::vector<uint32_t> index_stamp_;
  std::vector<int32_t> index_of_;

  size_t adj_words_ = 0;
  std::vector<uint64_t> adj_;  // n rows of adj_words_ words.

  // Triangular pair memo: 0 = unknown, 1 = pass, 2 = fail.
  std::vector<uint8_t> memo_;
  uint64_t pairs_scored_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_SOCIAL_SCRATCH_H_
