// Copyright 2026 The gpssn Authors.
//
// R*-tree over 2D points (Beckmann, Kriegel, Schneider, Seeger, SIGMOD'90 —
// reference [6] of the paper), written from scratch. Implements the full
// R* insertion algorithm: overlap-minimizing ChooseSubtree at the leaf
// level, forced reinsertion on first overflow per level, and the
// margin-driven ChooseSplitAxis / overlap-driven ChooseSplitIndex split.
//
// The tree is the substrate of the POI index I_R (poi_index.h): the GP-SSN
// query processor traverses its nodes directly, so node ids, levels, and
// entry lists are part of the public interface.

#ifndef GPSSN_INDEX_RSTAR_TREE_H_
#define GPSSN_INDEX_RSTAR_TREE_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace gpssn {

using RNodeId = int32_t;
inline constexpr RNodeId kInvalidRNode = -1;

/// One slot of a node: for internal nodes `id` is a child RNodeId; for
/// leaves it is the caller's object id.
struct RTreeEntry {
  Rect mbr;
  int32_t id = -1;
};

/// A tree node. `level` 0 means leaf.
struct RTreeNode {
  int32_t level = 0;
  std::vector<RTreeEntry> entries;

  bool is_leaf() const { return level == 0; }
};

/// Point R*-tree. Insert-only (the GP-SSN indexes are built once, offline).
class RStarTree {
 public:
  struct Options {
    /// Maximum entries per node (page fanout). Minimum is 40% of max, and
    /// 30% of an overflowing node's entries are force-reinserted, the values
    /// the R*-tree paper recommends.
    int max_entries = 32;
  };

  RStarTree() : RStarTree(Options{}) {}
  explicit RStarTree(Options options);

  /// Inserts a point object. Object ids are arbitrary non-negative ints.
  void Insert(const Point& p, int32_t object_id);

  /// All object ids whose points fall inside `query` (borders inclusive).
  void RangeQuery(const Rect& query, std::vector<int32_t>* out) const;

  /// All object ids within Euclidean `radius` of `center`.
  void CircleQuery(const Point& center, double radius,
                   std::vector<int32_t>* out) const;

  int size() const { return size_; }
  int height() const { return nodes_[root_].level + 1; }
  RNodeId root() const { return root_; }
  const RTreeNode& node(RNodeId id) const { return nodes_[id]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Options& options() const { return options_; }

  /// Corruption-injection hook for the audit tests (core/audit.h): grants
  /// mutable access to a node so a test can break an invariant on purpose
  /// and assert the validator localizes it. Never call outside tests.
  RTreeNode& mutable_node_for_test(RNodeId id) { return nodes_[id]; }

  /// MBR of the whole tree (empty rect when the tree is empty).
  Rect bounds() const;

  /// Internal-consistency check for tests: MBRs contain children, levels
  /// are coherent, fanout limits hold (root exempt from the minimum).
  bool CheckInvariants() const;

 private:
  int min_entries() const;

  RNodeId NewNode(int32_t level);
  Rect NodeMbr(RNodeId id) const;

  /// Descends from the root to a node at `target_level`, choosing the
  /// subtree per the R* criteria. Fills `path` with node ids root..target.
  RNodeId ChooseSubtree(const Rect& mbr, int32_t target_level,
                        std::vector<RNodeId>* path) const;

  /// Inserts `entry` at `target_level`, handling overflow treatment
  /// (forced reinsert on the first overflow per level, split otherwise).
  void InsertEntry(const RTreeEntry& entry, int32_t target_level);

  /// R* split; returns the id of the newly created sibling.
  RNodeId Split(RNodeId node_id);

  /// Recomputes MBRs along `path` (from deepest to root).
  void AdjustPath(const std::vector<RNodeId>& path);

  Options options_;
  std::vector<RTreeNode> nodes_;
  RNodeId root_;
  int size_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_INDEX_RSTAR_TREE_H_
