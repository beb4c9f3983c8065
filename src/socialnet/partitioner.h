// Copyright 2026 The gpssn Authors.
//
// Multilevel graph partitioner for the social-network index I_S
// (Section 4.1 partitions G_s "via standard graph partitioning methods such
// as [METIS]"). This is a from-scratch implementation of the same algorithm
// family: heavy-edge-matching coarsening, greedy region-growing initial
// partition on the coarsest graph, and boundary (Fiduccia–Mattheyses style)
// refinement during uncoarsening.

#ifndef GPSSN_SOCIALNET_PARTITIONER_H_
#define GPSSN_SOCIALNET_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "socialnet/social_graph.h"

namespace gpssn {

/// Allowed imbalance: a cell may hold up to (1 + kPartitionBalanceSlack)
/// times the average weight.
inline constexpr double kPartitionBalanceSlack = 0.30;

struct PartitionResult {
  /// cell[u] in [0, num_cells) for every user u.
  std::vector<int> cell;
  int num_cells = 0;
  /// Number of friendship edges crossing cells (lower = better locality).
  int64_t cut_edges = 0;
};

/// Partitions the social network into ceil(m / target_cell_size) balanced,
/// low-cut cells, with random choices drawn from `seed`.
PartitionResult PartitionSocialNetwork(const SocialNetwork& graph,
                                       int target_cell_size, uint64_t seed);

/// Computes the edge cut of an assignment (for tests / quality reporting).
int64_t ComputeEdgeCut(const SocialNetwork& graph,
                       const std::vector<int>& cell);

}  // namespace gpssn

#endif  // GPSSN_SOCIALNET_PARTITIONER_H_
