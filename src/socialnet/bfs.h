// Copyright 2026 The gpssn Authors.
//
// Hop-distance BFS on the social network: dist_SN(u, v) is the number of
// friendship hops on the shortest path (Lemma 4 and Eq. 19 operate on it).
// The engine owns a generation-stamped label arena for allocation-free reuse;
// MultiSourceHops shares one traversal among up to 64 sources, for the
// offline tables that need hops from many users at once.

#ifndef GPSSN_SOCIALNET_BFS_H_
#define GPSSN_SOCIALNET_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "socialnet/social_graph.h"

namespace gpssn {

inline constexpr int kUnreachableHops = std::numeric_limits<int>::max();

/// Reusable BFS arena bound to one social network. Not thread-safe.
class BfsEngine {
 public:
  explicit BfsEngine(const SocialNetwork* graph);

  /// BFS from `source`, exploring only users within `max_hops` hops
  /// (inclusive). After the call Hops(u) is exact for all users within the
  /// bound and kUnreachableHops otherwise.
  void Run(UserId source, int max_hops = std::numeric_limits<int>::max());

  /// Hop label from the last run.
  int Hops(UserId u) const {
    return stamp_[u] == generation_ ? hops_[u] : kUnreachableHops;
  }

  /// Users visited by the last run, in BFS order (source first).
  const std::vector<UserId>& Visited() const { return visited_; }

  /// Exact pairwise hop distance with early exit.
  int Distance(UserId a, UserId b,
               int max_hops = std::numeric_limits<int>::max());

 private:
  const SocialNetwork* graph_;
  std::vector<int> hops_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  std::vector<UserId> visited_;  // Doubles as the BFS queue.
};

/// Hop distances from every source to every target: row i, column j is
/// dist_SN(sources[i], targets[j]), or kUnreachableHops when they lie in
/// different components — exactly what BfsEngine::Run(sources[i]) followed
/// by Hops(targets[j]) returns. Runs one bit-parallel BFS per batch of 64
/// sources (Then et al., "The More the Merrier", PVLDB 8(4), 2014): bit i
/// of a user's word is set once source i has reached that user, so one
/// pass over the friend lists grows every source of the batch by a level.
/// Sources may repeat and may be targets.
std::vector<std::vector<int>> MultiSourceHops(const SocialNetwork& graph,
                                              std::span<const UserId> sources,
                                              std::span<const UserId> targets);

}  // namespace gpssn

#endif  // GPSSN_SOCIALNET_BFS_H_
