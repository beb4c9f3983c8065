// Copyright 2026 The gpssn Authors.
//
// Per-query social scoring scratch: a flat structure-of-arrays view of the
// surviving candidate users' interest vectors plus candidate-local
// adjacency bitsets and a triangular pairwise Interest_Score memo. Built
// once per query from the post-filter candidate set (QueryOptions::
// vectorized_social_kernels), then shared by ApplyCorollary2, the ESU
// group enumerator, and the refinement matching-score checks, so:
//
//   - every pairwise Interest_Score (Eq. 1) is evaluated at most once per
//     query, through the auto-vectorizable SoA kernels of core/scores.h
//     (64-byte-aligned rows, zero-padded to a multiple of kSoaLaneWidth);
//   - ESU connectivity / extension tests become word-parallel
//     AND / ANDNOT loops over candidate-local adjacency bitsets instead of
//     per-edge hash or CSR probes;
//   - MatchScore against a ball's union keywords becomes a masked row sum
//     (bit-identical to the scalar MatchScore — see MaskedMatchScore).
//
// Candidates are held sorted by user id, so ascending bitset iteration
// reproduces the CSR Friends() visit order and group enumeration emits the
// exact same group sequence as the scalar path.
//
// Not thread-safe: one scratch serves one query at a time, on the thread
// running it (Build and PairPasses mutate state).

#ifndef GPSSN_CORE_SOCIAL_SCRATCH_H_
#define GPSSN_CORE_SOCIAL_SCRATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.h"
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
  void Invalidate() { built_ = false; }

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

  size_t dim() const { return dim_; }
  size_t padded_dim() const { return padded_dim_; }
  /// 64-byte-aligned interest row of candidate `i`, zero-padded to
  /// padded_dim().
  const double* Row(int i) const {
    return rows_ + static_cast<size_t>(i) * padded_dim_;
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
  bool Adjacent(int i, int j) const {
    return (AdjacencyRow(i)[static_cast<size_t>(j) >> 6] >>
            (static_cast<size_t>(j) & 63)) &
           1ULL;
  }

  /// Fills `mask` (padded_dim() bits) with the keyword ids of `keywords`
  /// that fall inside [0, dim()). With sorted unique keywords the masked
  /// row sum MatchRow() is then bit-identical to MatchScore.
  void BuildKeywordMask(const std::vector<KeywordId>& keywords,
                        DynamicBitset* mask) const;

  /// Eq. 2 for candidate `i` against a keyword mask.
  double MatchRow(int i, const DynamicBitset& mask) const {
    return MaskedMatchScoreRow(Row(i), mask);
  }

  static double MaskedMatchScoreRow(const double* row,
                                    const DynamicBitset& mask);

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

  size_t dim_ = 0;
  size_t padded_dim_ = 0;
  std::vector<double> rows_storage_;  // Over-allocated for alignment.
  double* rows_ = nullptr;            // 64-byte-aligned view.

  size_t adj_words_ = 0;
  std::vector<uint64_t> adj_;  // n rows of adj_words_ words.

  // Triangular pair memo: 0 = unknown, 1 = pass, 2 = fail.
  std::vector<uint8_t> memo_;
  uint64_t pairs_scored_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_SOCIAL_SCRATCH_H_
