// Copyright 2026 The gpssn Authors.
//
// Per-query social scoring scratch over the surviving candidate users:
// a candidate index, candidate-local adjacency bitsets, a triangular
// pairwise Interest_Score memo and topic posting lists. PlanGroups
// (core/refinement.h) builds it whenever Corollary 2 runs over at most
// kScratchMaxCandidates candidates, and shares it between ApplyCorollary2
// and the ESU group enumerator, so:
//
//   - every pairwise Interest_Score (Eq. 1) is evaluated at most once per
//     query, by RunSimilarity (core/scores.h) over the two users' interest
//     runs (their nonzero topics, socialnet/social_graph.h) — the 4-lane
//     order, hence the same bits, as every other path;
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

/// Topic posting lists over a candidate list, the workspace of Corollary
/// 2's partner search (ApplyCorollary2, core/refinement.h): for each topic,
/// the positions in the list of the candidates whose runs hold it,
/// ascending, and which candidates the current search has tried. Reuses
/// its arrays across queries.
class TopicPostings {
 public:
  /// Lists `users` by topic and starts with no search open.
  void Build(const SocialNetwork& social, std::span<const UserId> users);

  /// Positions of the candidates holding topic `f`, ascending.
  std::span<const int32_t> Holders(KeywordId f) const {
    return {holders_.data() + begin_[f], begin_[f + 1] - begin_[f]};
  }

  /// Starts a search: no candidate is tried yet.
  void BeginSearch();

  /// Marks candidate position `i` tried; false when this search already
  /// tried it.
  bool Try(int32_t i) {
    if (tried_[i] == search_) return false;
    tried_[i] = search_;
    return true;
  }

 private:
  // Topic f's holders are holders_[begin_[f], begin_[f + 1]).
  std::vector<uint32_t> begin_;
  std::vector<int32_t> holders_;
  std::vector<uint32_t> tried_;  // Per position: the last search to try it.
  uint32_t search_ = 0;
};

class SocialScratch {
 public:
  SocialScratch() = default;

  /// Rebuilds the scratch for one query over `candidates` (unique user
  /// ids; any order — they are sorted internally). Reuses buffers across
  /// queries.
  void Build(const SocialNetwork& social, const GpssnQuery& query,
             std::span<const UserId> candidates);

  bool built() const { return built_; }

  int size() const { return static_cast<int>(users_.size()); }
  UserId UserAt(int i) const { return users_[i]; }
  /// Candidate index of user `u`, or -1 when u is not a candidate.
  int IndexOf(UserId u) const {
    return index_stamp_[u] == generation_ ? index_of_[u] : -1;
  }

  /// Memoized pairwise predicate Interest_Score(i, j) >= γ under the
  /// query's metric. Each unordered pair is scored at most once per query.
  bool PairPasses(int i, int j);

  /// Fresh (non-memoized) pair evaluations since Build.
  uint64_t pairs_scored() const { return pairs_scored_; }

  /// The posting lists ApplyCorollary2 builds here.
  TopicPostings* postings() { return &postings_; }

  // --- Candidate-local adjacency (one n-bit row per candidate).
  size_t adj_words() const { return adj_words_; }
  const uint64_t* AdjacencyRow(int i) const {
    return adj_.data() + static_cast<size_t>(i) * adj_words_;
  }

 private:
  size_t TriIndex(int i, int j) const;  // Requires i < j.

  bool built_ = false;
  const SocialNetwork* social_ = nullptr;
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

  TopicPostings postings_;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_SOCIAL_SCRATCH_H_
