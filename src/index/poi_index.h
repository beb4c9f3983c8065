// Copyright 2026 The gpssn Authors.
//
// The road-network index I_R (Section 4.1): an R*-tree over POI locations
// whose leaf objects and internal entries carry the paper's augmentations:
//
//   * per POI o_i:   sup_K = union of keywords of POIs within road distance
//                    2·r_max of o_i (candidate superset R' of Fig. 2);
//                    sub_K = union of keywords within r_min (used for match-
//                    score LOWER bounds, Eq. 18, therefore stored exactly);
//                    the ball B(o_i, r_max) with exact distances, from which
//                    a query reads every candidate ball B(o_i, r), r <= r_max;
//                    exact road distances to the h road pivots.
//   * per node e_R:  V_sup bit vector (OR of children, Lemma 6 / Eq. 15);
//                    sampled POIs with exact sub_K sets (Eq. 18);
//                    per-pivot lb/ub road distances (Eqs. 7-8).
//
// Nodes are mapped onto simulated disk pages so queries can charge the
// paper's I/O metric. The ball table stays outside that layout: a query
// charges the payload page of every ball member it reads, as before.

#ifndef GPSSN_INDEX_POI_INDEX_H_
#define GPSSN_INDEX_POI_INDEX_H_

#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/pagestore.h"
#include "common/rng.h"
#include "index/rstar_tree.h"
#include "roadnet/road_pivots.h"
#include "roadnet/shortest_path.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

struct PoiIndexOptions {
  RStarTree::Options rtree;
  /// Smallest / largest radius r a query may specify; sub_K / sup_K are
  /// precomputed against these extremes (Section 4.1).
  double r_min = 0.5;
  double r_max = 4.0;
  /// How many sampled POIs (with exact sub_K sets) each node keeps for the
  /// match-score lower bound of Eq. 18.
  int sub_samples_per_node = 2;
  /// Simulated page size in bytes.
  uint32_t page_size = 4096;
  uint64_t seed = 1;
};

/// Augmentations of one POI (leaf object of I_R).
struct PoiAug {
  KeywordBitVector v_sup;                // Hash signature of sup_K.
  std::vector<KeywordId> sup_keywords;   // Exact sup_K (sorted).
  std::vector<KeywordId> sub_keywords;   // Exact sub_K (sorted).
  std::vector<double> pivot_dist;        // dist_RN(o_i, rp_k), k = 1..h.
  // B(o_i, r_max): every POI within road distance r_max of o_i with that
  // distance, bit-identical to PoiLocator::BallWithDistances(position,
  // r_max) in ids, distances and order (ascending edge, then POI id). A
  // bounded search's labels below its bound do not depend on the bound,
  // so the entries with distance <= r are exactly B(o_i, r).
  std::vector<std::pair<PoiId, double>> ball;
};

/// Augmentations of one R*-tree node of I_R.
struct PoiNodeAug {
  KeywordBitVector v_sup;          // OR of member signatures.
  std::vector<PoiId> sub_samples;  // Sampled POIs (their sub_K is exact).
  std::vector<double> lb_pivot;    // Eq. 7, per pivot.
  std::vector<double> ub_pivot;    // Eq. 8, per pivot.
  int subtree_pois = 0;            // POIs under this node (pruning power).
  PageId page = kInvalidPage;
};

/// I_R: R*-tree + augmentations + page layout. Built once, immutable.
class PoiIndex {
 public:
  /// Builds the index. `pivots` must outlive the index. Runs one bounded
  /// Dijkstra ball query per POI (radius 2·r_max) and keeps sup_K, sub_K
  /// and B(o, r_max) from it.
  PoiIndex(const SpatialSocialNetwork* ssn, const RoadPivotTable* pivots,
           const PoiIndexOptions& options);

  /// Snapshot-loading constructor: takes the sup_K / sub_K keyword sets
  /// precomputed by a previous build, so the 2·r_max ball queries are
  /// skipped; bit vectors and pivot distances are recomputed, and each
  /// POI's ball with one bounded search of radius r_max. The `precomputed`
  /// vector must have one entry per POI with sorted-unique keyword sets;
  /// everything else in it is ignored.
  PoiIndex(const SpatialSocialNetwork* ssn, const RoadPivotTable* pivots,
           const PoiIndexOptions& options, std::vector<PoiAug> precomputed);

  const RStarTree& tree() const { return tree_; }
  const RoadPivotTable& pivots() const { return *pivots_; }
  const SpatialSocialNetwork& ssn() const { return *ssn_; }
  const PoiIndexOptions& options() const { return options_; }

  const PoiAug& poi_aug(PoiId id) const { return poi_aug_[id]; }
  const PoiNodeAug& node_aug(RNodeId id) const { return node_aug_[id]; }

  /// Page of the (single) leaf page holding POI object payloads for `id`
  /// (POI payloads are packed after the node pages).
  PageId poi_page(PoiId id) const { return poi_page_[id]; }

  int height() const { return tree_.height(); }

  /// Corruption-injection hooks for the audit tests (core/audit.h): grant
  /// mutable access to augmentations / the tree so a test can break an
  /// invariant on purpose and assert the validator localizes it (or that a
  /// loosened bound trips the pruning-soundness auditor). Never call
  /// outside tests.
  PoiAug& mutable_poi_aug_for_test(PoiId id) { return poi_aug_[id]; }
  PoiNodeAug& mutable_node_aug_for_test(RNodeId id) { return node_aug_[id]; }
  RStarTree& mutable_tree_for_test() { return tree_; }

  /// Dynamic maintenance: registers the POI `id` that was just appended to
  /// the underlying network via SpatialSocialNetwork::AddPoi. Updates the
  /// new POI's augmentations, patches the sup_K / sub_K sets of every POI
  /// whose precomputed balls now contain it (reverse ball update), searches
  /// the ball of every POI within r_max of it again from that POI's side,
  /// inserts it into the R*-tree, and rebuilds the node aggregates and page
  /// layout (O(n) — suitable for occasional facility openings, not bulk
  /// loads).
  Status InsertPoi(PoiId id);

 private:
  /// Fills the augmentations of `id` from one ball query at 2·r_max and
  /// returns that query's result.
  std::vector<std::pair<PoiId, double>> ComputePoiAug(PoiId id);
  /// Recomputes B(id, r_max) with one bounded search from `id`.
  void RefreshBall(PoiId id);
  /// Recomputes every node's aggregates (bit vectors, pivot bounds,
  /// samples, subtree counts) and the page layout from the current tree.
  void RebuildNodeAugmentations();

  const SpatialSocialNetwork* ssn_;
  const RoadPivotTable* pivots_;
  PoiIndexOptions options_;
  RStarTree tree_;
  Rng rng_;
  std::vector<PoiAug> poi_aug_;
  std::vector<PoiNodeAug> node_aug_;
  std::vector<PageId> poi_page_;
  // The index's own ball searches (build and InsertPoi); queries never
  // touch them.
  DijkstraEngine engine_;
  PoiLocator locator_;
};

}  // namespace gpssn

#endif  // GPSSN_INDEX_POI_INDEX_H_
