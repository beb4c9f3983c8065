// Copyright 2026 The gpssn Authors.
//
// The social-network index I_S (Section 4.1): the graph structure of G_s is
// partitioned into subgraphs (leaf nodes, via the multilevel partitioner
// substituting METIS); connected subgraphs are recursively grouped into
// non-leaf nodes until a root remains. Every node stores
//   * lb/ub interest vectors over its users (Eqs. 9-10),
//   * lb/ub hop distances to the l social pivots (Eqs. 11-12),
// and is mapped onto simulated disk pages for the I/O metric. The paper's
// node road-pivot boxes (Eqs. 13-14) are not stored: no prune that is sound
// on its own reads them (DESIGN.md §5). Each user's exact road-pivot
// distances stay at leaf granularity, one row per user of a flat
// id-indexed table.

#ifndef GPSSN_INDEX_SOCIAL_INDEX_H_
#define GPSSN_INDEX_SOCIAL_INDEX_H_

#include <span>
#include <vector>

#include "common/pagestore.h"
#include "roadnet/road_pivots.h"
#include "socialnet/social_pivots.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

struct SocialIndexOptions {
  /// Users per leaf cell of the partition.
  int leaf_cell_size = 32;
  /// Child nodes grouped under one parent.
  int fanout = 8;
  /// Seeds the partitioner and the grouping of nodes under parents.
  uint64_t seed = 1;
};

using SNodeId = int32_t;

/// One node of I_S. Leaves own users; internal nodes own children. All
/// leaves sit at level 0 and the root at level height-1 (uniform depth, as
/// Algorithm 2's level-synchronized descent requires).
struct SocialIndexNode {
  int level = 0;
  std::vector<SNodeId> children;  // Non-leaf only.
  std::vector<UserId> users;      // Leaf only.
  std::vector<double> lb_w, ub_w; // Eqs. 9-10 (length d).
  std::vector<int> lb_sp, ub_sp;  // Eqs. 11-12 (length l).
  int subtree_users = 0;  // Users under this node (pruning power).
  PageId page = kInvalidPage;

  bool is_leaf() const { return level == 0; }
};

/// I_S: partition tree + bounds + page layout. Built once, immutable.
class SocialIndex {
 public:
  /// `social_pivots` / `road_pivots` must outlive the index.
  SocialIndex(const SpatialSocialNetwork* ssn,
              const SocialPivotTable* social_pivots,
              const RoadPivotTable* road_pivots,
              const SocialIndexOptions& options);

  SNodeId root() const { return root_; }
  int height() const { return nodes_[root_].level + 1; }
  const SocialIndexNode& node(SNodeId id) const { return nodes_[id]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  const SpatialSocialNetwork& ssn() const { return *ssn_; }
  const SocialPivotTable& social_pivots() const { return *social_pivots_; }
  const RoadPivotTable& road_pivots() const { return *road_pivots_; }
  const SocialIndexOptions& options() const { return options_; }

  /// Exact road distances of user u's home to the h road pivots (stored at
  /// leaf granularity per Section 4.1).
  std::span<const double> user_road_pivot_dists(UserId u) const {
    return {user_pivot_rows_.data() + static_cast<size_t>(u) * num_pivots_,
            num_pivots_};
  }

  /// Page of the leaf record holding user u's payload.
  PageId user_page(UserId u) const { return user_page_[u]; }

  /// Pages of the layout: node and user pages lie in [0, num_pages()).
  uint32_t num_pages() const { return num_pages_; }

  /// Leaf node holding user u.
  SNodeId leaf_of_user(UserId u) const { return leaf_of_user_[u]; }

  /// Corruption-injection hooks for the audit tests (core/audit.h): grant
  /// mutable access to a node or a pivot row so a test can break an
  /// invariant on purpose and assert the validator localizes it. Never
  /// call outside tests.
  SocialIndexNode& mutable_node_for_test(SNodeId id) { return nodes_[id]; }
  std::span<double> mutable_user_road_pivot_dists_for_test(UserId u) {
    return {user_pivot_rows_.data() + static_cast<size_t>(u) * num_pivots_,
            num_pivots_};
  }

  /// Dynamic maintenance: user u's interest vector changed in the
  /// underlying network (SpatialSocialNetwork::UpdateUserInterests).
  /// Recomputes the interest lb/ub boxes exactly along the leaf-to-root
  /// path, as the build computes them: the leaf from its members' interest
  /// runs, the parents by merging their children (O(Σ run lengths +
  /// d·height)).
  Status UpdateUserInterests(UserId u);

 private:
  const SpatialSocialNetwork* ssn_;
  const SocialPivotTable* social_pivots_;
  const RoadPivotTable* road_pivots_;
  SocialIndexOptions options_;
  std::vector<SocialIndexNode> nodes_;
  SNodeId root_ = -1;
  std::vector<SNodeId> parent_;        // Parent per node (-1 at the root).
  std::vector<SNodeId> leaf_of_user_;  // Leaf node per user.
  size_t num_pivots_;                   // h.
  std::vector<double> user_pivot_rows_;  // num_pivots_ per user, id order.
  std::vector<PageId> user_page_;
  uint32_t num_pages_ = 0;
  std::vector<size_t> holders_;  // Per-topic counts for a leaf's boxes.
};

}  // namespace gpssn

#endif  // GPSSN_INDEX_SOCIAL_INDEX_H_
