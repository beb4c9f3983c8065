#include "index/poi_index.h"

#include <algorithm>

#include "common/macros.h"
#include "common/rng.h"

namespace gpssn {

namespace {

// Union of the keyword sets of `pois` (ids), sorted unique.
std::vector<KeywordId> KeywordUnion(const SpatialSocialNetwork& ssn,
                                    const std::vector<PoiId>& ids) {
  std::vector<KeywordId> out;
  for (PoiId id : ids) {
    const auto& kws = ssn.poi(id).keywords;
    out.insert(out.end(), kws.begin(), kws.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Inserts the elements of `add` into the sorted-unique vector `into`.
void MergeSorted(std::vector<KeywordId>* into,
                 const std::vector<KeywordId>& add) {
  for (KeywordId kw : add) {
    auto it = std::lower_bound(into->begin(), into->end(), kw);
    if (it == into->end() || *it != kw) into->insert(it, kw);
  }
}

}  // namespace

PoiIndex::PoiIndex(const SpatialSocialNetwork* ssn,
                   const RoadPivotTable* pivots,
                   const PoiIndexOptions& options)
    : ssn_(ssn),
      pivots_(pivots),
      options_(options),
      tree_(options.rtree),
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
  for (PoiId id = 0; id < n; ++id) ComputePoiAug(id);

  RebuildNodeAugmentations();
}

PoiIndex::PoiIndex(const SpatialSocialNetwork* ssn,
                   const RoadPivotTable* pivots,
                   const PoiIndexOptions& options,
                   std::vector<PoiAug> precomputed)
    : ssn_(ssn),
      pivots_(pivots),
      options_(options),
      tree_(options.rtree),
      engine_(&ssn->road()),
      locator_(&ssn->road(), &ssn->pois()) {
  GPSSN_CHECK(ssn != nullptr && pivots != nullptr);
  GPSSN_CHECK(options.r_min > 0.0 && options.r_min <= options.r_max);
  const int n = ssn->num_pois();
  GPSSN_CHECK(static_cast<int>(precomputed.size()) == n);

  std::vector<PoiId> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  Rng(options.seed).Shuffle(&order);
  for (PoiId id : order) {
    tree_.Insert(ssn->poi(id).location, id);
  }

  poi_aug_ = std::move(precomputed);
  for (PoiId id = 0; id < n; ++id) {
    PoiAug& aug = poi_aug_[id];
    aug.v_sup = KeywordBitVector::FromKeywords(
        std::vector<int>(aug.sup_keywords.begin(), aug.sup_keywords.end()));
    aug.pivot_dist = pivots->PositionDistances(ssn->poi(id).position);
    RefreshBall(id);
  }

  RebuildNodeAugmentations();
}

std::vector<std::pair<PoiId, double>> PoiIndex::ComputePoiAug(PoiId id) {
  PoiAug& aug = poi_aug_[id];
  const Poi& poi = ssn_->poi(id);
  // One ball query at the outer radius gives sup_K and B(o, r_max): the
  // inner ball is a distance filter over the same result.
  auto outer = locator_.BallWithDistances(poi.position, 2.0 * options_.r_max,
                                          &engine_);
  std::vector<PoiId> sup_ids;
  aug.ball.clear();
  for (const auto& [other, dist] : outer) {
    sup_ids.push_back(other);
    if (dist <= options_.r_max) aug.ball.emplace_back(other, dist);
  }
  aug.sup_keywords = KeywordUnion(*ssn_, sup_ids);
  aug.v_sup = KeywordBitVector::FromKeywords(
      std::vector<int>(aug.sup_keywords.begin(), aug.sup_keywords.end()));
  aug.pivot_dist = pivots_->PositionDistances(poi.position);
  return outer;
}

void PoiIndex::RefreshBall(PoiId id) {
  poi_aug_[id].ball = locator_.BallWithDistances(
      ssn_->poi(id).position, options_.r_max, &engine_);
}

void PoiIndex::RebuildNodeAugmentations() {
  node_aug_.assign(tree_.num_nodes(), PoiNodeAug{});

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
    if (node.is_leaf()) {
      aug.subtree_pois = static_cast<int>(node.entries.size());
      for (const RTreeEntry& e : node.entries) {
        aug.v_sup.UnionWith(poi_aug_[e.id].v_sup);
      }
    } else {
      for (const RTreeEntry& e : node.entries) {
        const PoiNodeAug& child = node_aug_[e.id];
        aug.subtree_pois += child.subtree_pois;
        aug.v_sup.UnionWith(child.v_sup);
      }
    }
  }

  // --- Page layout: nodes first (breadth-first from the root, the order a
  // bulk writer would emit them), then POI payload records, in I_R's page
  // range above I_S's.
  PageAllocator alloc(options_.page_size, kPoiIndexFirstPage);
  {
    std::vector<RNodeId> queue = {tree_.root()};
    std::vector<bool> seen(tree_.num_nodes(), false);
    seen[tree_.root()] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      const RNodeId id = queue[head];
      const RTreeNode& node = tree_.node(id);
      // Entry bytes: MBR (32) + id (4); aug: bit vector (32).
      const uint32_t bytes =
          static_cast<uint32_t>(node.entries.size() * 36 + 32 + 16);
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
    const PoiAug& aug = poi_aug_[id];
    const uint32_t bytes = static_cast<uint32_t>(
        24 + 4 * aug.sup_keywords.size() + 8 * aug.pivot_dist.size() + 32);
    poi_page_[id] = alloc.Place(bytes);
  }
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
    PoiAug& aug = poi_aug_[other];
    MergeSorted(&aug.sup_keywords, poi.keywords);
    for (KeywordId kw : poi.keywords) aug.v_sup.Add(kw);
    if (dist <= refresh_radius) RefreshBall(other);
  }

  tree_.Insert(poi.location, id);
  RebuildNodeAugmentations();
  return Status::OK();
}

}  // namespace gpssn
