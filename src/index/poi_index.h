// Copyright 2026 The gpssn Authors.
//
// The road-network index I_R (Section 4.1): an R*-tree over POI locations
// whose leaf objects and internal entries carry the paper's augmentations:
//
//   * per POI o_i:   sup_K = union of keywords of POIs within road distance
//                    2·r_max of o_i (candidate superset R' of Fig. 2), as
//                    an exact topic mask;
//                    the ball B(o_i, r_max) with exact distances, in
//                    ascending (distance, id) order, each entry with the
//                    keyword union of the entries up to it, so a query
//                    reads every candidate ball B(o_i, r), r <= r_max, as a
//                    prefix and its keyword union as one mask;
//                    exact road distances to the h road pivots.
//   * per node e_R:  V_sup, the OR of its entries' masks (Lemma 6 / Eq. 15
//                    with one bit per topic, so no bit is a collision).
//
// The per-POI data sits in flat id-indexed arrays: one pivot row per POI,
// and the balls back to back, each at a [begin, end) range.
//
// The paper's node pivot boxes (Eqs. 7-8) and sub_K sets (Eq. 18) are not
// stored: no prune that is sound on its own reads them (DESIGN.md §5).
//
// Nodes are mapped onto simulated disk pages so queries can charge the
// paper's I/O metric. The ball table stays outside that layout: a query
// charges the payload page of every member of a ball it refines.

#ifndef GPSSN_INDEX_POI_INDEX_H_
#define GPSSN_INDEX_POI_INDEX_H_

#include <cstdint>
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

/// Augmentations of one R*-tree node of I_R.
struct PoiNodeAug {
  int subtree_pois = 0;    // POIs under this node (pruning power).
  PageId page = kInvalidPage;
};

/// I_R: R*-tree + augmentations + page layout. Built once; InsertPoi is
/// its only change.
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

  /// The POIs of B(o, r_max) for POI `id`, every POI within road distance
  /// r_max of o, in ascending (distance, id) order; ball_dists(id) holds
  /// their distances at the same places. As a set with its distance bits
  /// it is PoiLocator::BallWithDistances(position, r_max). A bounded
  /// search's labels below its bound do not depend on the bound, so
  /// B(o, r) for r <= r_max is the prefix of BallPrefix(id, r) entries.
  std::span<const PoiId> ball_ids(PoiId id) const {
    return {ball_ids_.data() + balls_[id].begin, balls_[id].size()};
  }
  std::span<const double> ball_dists(PoiId id) const {
    return {ball_dists_.data() + balls_[id].begin, balls_[id].size()};
  }

  /// Entries of B(o, r_max) within distance r: B(o, r) is that prefix.
  size_t BallPrefix(PoiId id, double r) const;

  /// The keyword union of B(o, r_max)'s first k >= 1 entries, in
  /// sup_mask's layout. With k = BallPrefix(id, r) it is ∪_{o'∈B(o, r)}
  /// o'.K, the set Lemma 1 and the θ test score.
  std::span<const uint64_t> ball_mask(PoiId id, size_t k) const {
    return {ball_masks_.data() + (balls_[id].begin + k - 1) * mask_words_,
            mask_words_};
  }

  /// dist_RN(o, rp_k), k = 1..h: POI `id`'s row of one flat id-indexed
  /// table.
  std::span<const double> pivot_dists(PoiId id) const {
    return {pivot_rows_.data() + static_cast<size_t>(id) * num_pivots_,
            num_pivots_};
  }

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
  std::span<PoiId> mutable_ball_ids_for_test(PoiId id) {
    return {ball_ids_.data() + balls_[id].begin, balls_[id].size()};
  }
  std::span<double> mutable_ball_dists_for_test(PoiId id) {
    return {ball_dists_.data() + balls_[id].begin, balls_[id].size()};
  }
  /// Every running mask of POI `id`'s ball, entry by entry.
  std::span<uint64_t> mutable_ball_masks_for_test(PoiId id) {
    return {ball_masks_.data() + balls_[id].begin * mask_words_,
            balls_[id].size() * mask_words_};
  }
  std::span<double> mutable_pivot_dists_for_test(PoiId id) {
    return {pivot_rows_.data() + static_cast<size_t>(id) * num_pivots_,
            num_pivots_};
  }
  PoiNodeAug& mutable_node_aug_for_test(RNodeId id) { return node_aug_[id]; }
  std::span<uint64_t> mutable_node_mask_for_test(RNodeId id) {
    return {node_masks_.data() + static_cast<size_t>(id) * mask_words_,
            mask_words_};
  }
  RStarTree& mutable_tree_for_test() { return tree_; }

  /// Dynamic maintenance: registers the POI `id` that was just appended to
  /// the underlying network via SpatialSocialNetwork::AddPoi. Appends the
  /// new POI's ball and pivot row, patches the sup_K set of every POI whose
  /// precomputed 2·r_max ball now contains it (reverse ball update), searches
  /// the ball of every POI within r_max of it again from that POI's side
  /// (sorting and masking only those balls), inserts it into the R*-tree,
  /// and rebuilds the node aggregates and page layout (O(n) — suitable for
  /// occasional facility openings, not bulk loads).
  Status InsertPoi(PoiId id);

 private:
  /// A ball's entries in the flat arrays: [begin, end).
  struct BallRange {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };

  /// Appends POI `id`'s own keyword mask; `id` is the next id.
  void AppendKeywordMask(PoiId id);
  /// Appends the augmentations of POI `id`, the next id: its pivot row,
  /// and sup_K and B(o, r_max) from one ball query at 2·r_max, whose
  /// result it returns. Every POI within 2·r_max needs its keyword mask.
  std::vector<std::pair<PoiId, double>> AppendPoi(PoiId id);
  /// Stores `entries` (a ball search's result) as B(id, r_max): sorted by
  /// (distance, id), with running masks. A ball that grows moves to the
  /// end of the arrays and leaves its old entries dead; once the dead
  /// outnumber the live, the arrays are compacted.
  void StoreBall(PoiId id, std::vector<std::pair<PoiId, double>> entries);
  /// Moves every live ball entry to the front, in POI id order.
  void CompactBalls();
  uint64_t* mutable_sup_mask(PoiId id) {
    return sup_masks_.data() + static_cast<size_t>(id) * mask_words_;
  }
  /// ORs POI `id`'s own keywords into `mask`.
  void AddKeywords(PoiId id, uint64_t* mask) const {
    const uint64_t* own =
        keyword_masks_.data() + static_cast<size_t>(id) * mask_words_;
    for (size_t w = 0; w < mask_words_; ++w) mask[w] |= own[w];
  }
  /// Recomputes every node's aggregates (masks, subtree counts) and the
  /// page layout from the current tree.
  void RebuildNodeAugmentations();

  const SpatialSocialNetwork* ssn_;
  const RoadPivotTable* pivots_;
  PoiIndexOptions options_;
  RStarTree tree_;
  size_t mask_words_;                // KeywordMaskWords(d).
  size_t num_pivots_;                // h.
  // The balls: per POI its range, and per entry its POI, distance and
  // running keyword mask (mask_words_ words).
  std::vector<BallRange> balls_;
  std::vector<PoiId> ball_ids_;
  std::vector<double> ball_dists_;
  std::vector<uint64_t> ball_masks_;
  size_t live_ball_entries_ = 0;      // Σ ball sizes; the rest is dead.
  std::vector<double> pivot_rows_;    // num_pivots_ per POI, in id order.
  std::vector<uint64_t> sup_masks_;   // mask_words_ per POI, in id order.
  // Each POI's own keywords, mask_words_ per POI: the balls' masks are ORs
  // of these, so no mask reads a POI's keyword list.
  std::vector<uint64_t> keyword_masks_;
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
