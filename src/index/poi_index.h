// Copyright 2026 The gpssn Authors.
//
// The road-network index I_R (Section 4.1): an R*-tree over POI locations
// whose leaf objects and internal entries carry the paper's augmentations:
//
//   * per POI o_i:   sup_K = union of keywords of POIs within road distance
//                    2·r_max of o_i (candidate superset R' of Fig. 2), as
//                    an exact topic mask;
//                    the ball B(o_i, r_max) with exact distances, from which
//                    a query reads every candidate ball B(o_i, r), r <= r_max;
//                    exact road distances to the h road pivots.
//   * per node e_R:  V_sup, the OR of its entries' masks (Lemma 6 / Eq. 15
//                    with one bit per topic, so no bit is a collision).
//
// The paper's node pivot boxes (Eqs. 7-8) and sub_K sets (Eq. 18) are not
// stored: no prune that is sound on its own reads them (DESIGN.md §5).
//
// Nodes are mapped onto simulated disk pages so queries can charge the
// paper's I/O metric. The ball table stays outside that layout: a query
// charges the payload page of every ball member it reads, as before.

#ifndef GPSSN_INDEX_POI_INDEX_H_
#define GPSSN_INDEX_POI_INDEX_H_

#include <span>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/pagestore.h"
#include "index/rstar_tree.h"
#include "roadnet/road_pivots.h"
#include "roadnet/shortest_path.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

struct PoiIndexOptions {
  RStarTree::Options rtree;
  /// Smallest / largest radius r a query may specify; sup_K and the
  /// stored balls are precomputed against r_max (Section 4.1).
  double r_min = 0.5;
  double r_max = 4.0;
  /// Seeds the R*-tree's insertion order.
  uint64_t seed = 1;
};

/// Augmentations of one POI (leaf object of I_R).
struct PoiAug {
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
  int subtree_pois = 0;    // POIs under this node (pruning power).
  PageId page = kInvalidPage;
};

/// I_R: R*-tree + augmentations + page layout. Built once, immutable.
class PoiIndex {
 public:
  /// Builds the index. `pivots` must outlive the index. Runs one bounded
  /// Dijkstra ball query per POI (radius 2·r_max) and keeps sup_K and
  /// B(o, r_max) from it.
  PoiIndex(const SpatialSocialNetwork* ssn, const RoadPivotTable* pivots,
           const PoiIndexOptions& options);

  const RStarTree& tree() const { return tree_; }
  const RoadPivotTable& pivots() const { return *pivots_; }
  const SpatialSocialNetwork& ssn() const { return *ssn_; }
  const PoiIndexOptions& options() const { return options_; }

  const PoiAug& poi_aug(PoiId id) const { return poi_aug_[id]; }

  /// Exact sup_K of POI `id` as a topic mask: bit f of word f / 64 is
  /// topic f, KeywordMaskWords(d) words (common/bitvector.h). The masks of
  /// all POIs sit in one array, so a pass over them reads memory in order.
  std::span<const uint64_t> sup_mask(PoiId id) const {
    return {sup_masks_.data() + static_cast<size_t>(id) * mask_words_,
            mask_words_};
  }

  /// V_sup of R*-tree node `id`: the OR of its entries' masks (the sup_K
  /// masks of a leaf's POIs, the node masks of an internal node's
  /// children), so it is the union of sup_K over the subtree, in
  /// sup_mask's layout.
  std::span<const uint64_t> node_mask(RNodeId id) const {
    return {node_masks_.data() + static_cast<size_t>(id) * mask_words_,
            mask_words_};
  }

  const PoiNodeAug& node_aug(RNodeId id) const { return node_aug_[id]; }

  /// Page of the (single) leaf page holding POI object payloads for `id`
  /// (POI payloads are packed after the node pages).
  PageId poi_page(PoiId id) const { return poi_page_[id]; }

  /// Pages of the current layout: node and POI pages lie in
  /// [kPoiIndexFirstPage, kPoiIndexFirstPage + num_pages()). InsertPoi lays
  /// the index out again and updates the count.
  uint32_t num_pages() const { return num_pages_; }

  int height() const { return tree_.height(); }

  /// Corruption-injection hooks for the audit tests (core/audit.h): grant
  /// mutable access to augmentations / the tree so a test can break an
  /// invariant on purpose and assert the validator localizes it (or that a
  /// loosened bound trips the pruning-soundness auditor). Never call
  /// outside tests.
  PoiAug& mutable_poi_aug_for_test(PoiId id) { return poi_aug_[id]; }
  PoiNodeAug& mutable_node_aug_for_test(RNodeId id) { return node_aug_[id]; }
  std::span<uint64_t> mutable_node_mask_for_test(RNodeId id) {
    return {node_masks_.data() + static_cast<size_t>(id) * mask_words_,
            mask_words_};
  }
  RStarTree& mutable_tree_for_test() { return tree_; }

  /// Dynamic maintenance: registers the POI `id` that was just appended to
  /// the underlying network via SpatialSocialNetwork::AddPoi. Updates the
  /// new POI's augmentations, patches the sup_K set of every POI whose
  /// precomputed 2·r_max ball now contains it (reverse ball update), searches
  /// the ball of every POI within r_max of it again from that POI's side,
  /// inserts it into the R*-tree, and rebuilds the node aggregates and page
  /// layout (O(n) — suitable for occasional facility openings, not bulk
  /// loads).
  Status InsertPoi(PoiId id);

 private:
  /// Fills the augmentations of `id` from one ball query at 2·r_max and
  /// returns that query's result. `id`'s sup_K mask must be clear.
  std::vector<std::pair<PoiId, double>> ComputePoiAug(PoiId id);
  /// Recomputes B(id, r_max) with one bounded search from `id`.
  void RefreshBall(PoiId id);
  uint64_t* mutable_sup_mask(PoiId id) {
    return sup_masks_.data() + static_cast<size_t>(id) * mask_words_;
  }
  /// Recomputes every node's aggregates (masks, subtree counts) and the
  /// page layout from the current tree.
  void RebuildNodeAugmentations();

  const SpatialSocialNetwork* ssn_;
  const RoadPivotTable* pivots_;
  PoiIndexOptions options_;
  RStarTree tree_;
  std::vector<PoiAug> poi_aug_;
  size_t mask_words_;                // KeywordMaskWords(d).
  std::vector<uint64_t> sup_masks_;   // mask_words_ per POI, in id order.
  std::vector<uint64_t> node_masks_;  // mask_words_ per node, in id order.
  std::vector<PoiNodeAug> node_aug_;
  std::vector<PageId> poi_page_;
  uint32_t num_pages_ = 0;
  // The index's own ball searches (build and InsertPoi); queries never
  // touch them.
  DijkstraEngine engine_;
  PoiLocator locator_;
};

}  // namespace gpssn

#endif  // GPSSN_INDEX_POI_INDEX_H_
