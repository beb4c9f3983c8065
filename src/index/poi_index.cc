#include "index/poi_index.h"

#include <algorithm>

#include "common/macros.h"
#include "common/rng.h"

namespace gpssn {

PoiIndex::PoiIndex(const SpatialSocialNetwork* ssn,
                   const RoadPivotTable* pivots,
                   const PoiIndexOptions& options)
    : ssn_(ssn),
      pivots_(pivots),
      options_(options),
      tree_(options.rtree),
      mask_words_(KeywordMaskWords(ssn->num_topics())),
      engine_(&ssn->road()),
      locator_(&ssn->road(), &ssn->pois()) {
  GPSSN_CHECK(ssn != nullptr && pivots != nullptr);
  GPSSN_CHECK(options.r_min > 0.0 && options.r_min <= options.r_max);
  const int n = ssn->num_pois();

  // --- R*-tree over POI locations (insertion in shuffled order improves
  // the tree shape for sorted inputs).
  std::vector<PoiId> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  Rng(options.seed).Shuffle(&order);
  for (PoiId id : order) {
    tree_.Insert(ssn->poi(id).location, id);
  }

  // --- Per-POI augmentations.
  poi_aug_.resize(n);
  sup_masks_.assign(static_cast<size_t>(n) * mask_words_, 0);
  for (PoiId id = 0; id < n; ++id) ComputePoiAug(id);

  RebuildNodeAugmentations();
}

std::vector<std::pair<PoiId, double>> PoiIndex::ComputePoiAug(PoiId id) {
  PoiAug& aug = poi_aug_[id];
  const Poi& poi = ssn_->poi(id);
  // One ball query at the outer radius gives sup_K and B(o, r_max): the
  // inner ball is a distance filter over the same result.
  auto outer = locator_.BallWithDistances(poi.position, 2.0 * options_.r_max,
                                          &engine_);
  uint64_t* mask = mutable_sup_mask(id);
  aug.ball.clear();
  for (const auto& [other, dist] : outer) {
    AddToKeywordMask(ssn_->poi(other).keywords, ssn_->num_topics(), mask);
    if (dist <= options_.r_max) aug.ball.emplace_back(other, dist);
  }
  aug.pivot_dist = pivots_->PositionDistances(poi.position);
  return outer;
}

void PoiIndex::RefreshBall(PoiId id) {
  poi_aug_[id].ball = locator_.BallWithDistances(
      ssn_->poi(id).position, options_.r_max, &engine_);
}

void PoiIndex::RebuildNodeAugmentations() {
  node_aug_.assign(tree_.num_nodes(), PoiNodeAug{});
  node_masks_.assign(static_cast<size_t>(tree_.num_nodes()) * mask_words_, 0);

  // Children before parents; node ids do not encode level, so order by
  // level explicitly.
  std::vector<RNodeId> by_level(tree_.num_nodes());
  for (RNodeId i = 0; i < tree_.num_nodes(); ++i) by_level[i] = i;
  std::sort(by_level.begin(), by_level.end(), [this](RNodeId a, RNodeId b) {
    return tree_.node(a).level < tree_.node(b).level;
  });
  for (RNodeId id : by_level) {
    const RTreeNode& node = tree_.node(id);
    PoiNodeAug& aug = node_aug_[id];
    uint64_t* mask = node_masks_.data() + static_cast<size_t>(id) * mask_words_;
    for (const RTreeEntry& e : node.entries) {
      const std::span<const uint64_t> entry =
          node.is_leaf() ? sup_mask(e.id) : node_mask(e.id);
      for (size_t w = 0; w < mask_words_; ++w) mask[w] |= entry[w];
      aug.subtree_pois += node.is_leaf() ? 1 : node_aug_[e.id].subtree_pois;
    }
  }

  // --- Page layout: nodes first (breadth-first from the root, the order a
  // bulk writer would emit them), then POI payload records, in I_R's page
  // range above I_S's.
  PageAllocator alloc(kIndexPageSize, kPoiIndexFirstPage);
  {
    std::vector<RNodeId> queue = {tree_.root()};
    std::vector<bool> seen(tree_.num_nodes(), false);
    seen[tree_.root()] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      const RNodeId id = queue[head];
      const RTreeNode& node = tree_.node(id);
      // Entry bytes: MBR (32) + id (4); aug: the node mask.
      const uint32_t bytes = static_cast<uint32_t>(
          node.entries.size() * 36 + 8 * mask_words_ + 16);
      node_aug_[id].page = alloc.Place(bytes);
      if (!node.is_leaf()) {
        for (const RTreeEntry& e : node.entries) {
          if (!seen[e.id]) {
            seen[e.id] = true;
            queue.push_back(e.id);
          }
        }
      }
    }
  }
  const int n = static_cast<int>(poi_aug_.size());
  poi_page_.resize(n);
  for (PoiId id = 0; id < n; ++id) {
    // The payload record holds sup_K as its mask, as a node holds V_sup.
    const uint32_t bytes = static_cast<uint32_t>(
        24 + 8 * mask_words_ + 8 * poi_aug_[id].pivot_dist.size());
    poi_page_[id] = alloc.Place(bytes);
  }
  num_pages_ = alloc.pages_used();
}

Status PoiIndex::InsertPoi(PoiId id) {
  if (id != static_cast<PoiId>(poi_aug_.size())) {
    return Status::InvalidArgument(
        "InsertPoi expects the id just appended to the network");
  }
  if (id >= ssn_->num_pois()) {
    return Status::InvalidArgument("POI id not present in the network");
  }
  const Poi& poi = ssn_->poi(id);

  // Fresh augmentations for the new POI.
  poi_aug_.emplace_back();
  sup_masks_.resize(sup_masks_.size() + mask_words_, 0);
  const auto reverse = ComputePoiAug(id);

  // Reverse ball update: the new POI now appears inside the precomputed
  // 2·r_max balls (sup_K) of every POI within 2·r_max — road distances are
  // symmetric, so its own ball IS the reverse ball. A stored B(o,
  // r_max) must hold d(o, id) bit for bit, which may differ from d(id, o)
  // in the last bit, so those balls are searched again from o's side; the
  // slack only widens the choice (a search that does not reach the new
  // POI rewrites the same ball).
  const double refresh_radius =
      options_.r_max + 1e-9 * std::max(1.0, options_.r_max);
  for (const auto& [other, dist] : reverse) {
    if (other == id) continue;
    AddToKeywordMask(poi.keywords, ssn_->num_topics(),
                     mutable_sup_mask(other));
    if (dist <= refresh_radius) RefreshBall(other);
  }

  tree_.Insert(poi.location, id);
  RebuildNodeAugmentations();
  return Status::OK();
}

}  // namespace gpssn
