#include "index/poi_index.h"

#include <algorithm>
#include <tuple>

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
      num_pivots_(static_cast<size_t>(pivots->num_pivots())),
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
  balls_.reserve(n);
  sup_masks_.reserve(static_cast<size_t>(n) * mask_words_);
  keyword_masks_.reserve(static_cast<size_t>(n) * mask_words_);
  pivot_rows_.reserve(static_cast<size_t>(n) * num_pivots_);
  for (PoiId id = 0; id < n; ++id) AppendKeywordMask(id);
  for (PoiId id = 0; id < n; ++id) AppendPoi(id);

  RebuildNodeAugmentations();
}

size_t PoiIndex::BallPrefix(PoiId id, double r) const {
  const std::span<const double> dists = ball_dists(id);
  return static_cast<size_t>(std::upper_bound(dists.begin(), dists.end(), r) -
                             dists.begin());
}

void PoiIndex::AppendKeywordMask(PoiId id) {
  keyword_masks_.resize(keyword_masks_.size() + mask_words_, 0);
  uint64_t* own = keyword_masks_.data() + keyword_masks_.size() - mask_words_;
  AddToKeywordMask(ssn_->poi(id).keywords, ssn_->num_topics(), own);
}

std::vector<std::pair<PoiId, double>> PoiIndex::AppendPoi(PoiId id) {
  const Poi& poi = ssn_->poi(id);
  const std::vector<double> row = pivots_->PositionDistances(poi.position);
  pivot_rows_.insert(pivot_rows_.end(), row.begin(), row.end());
  // One ball query at the outer radius gives sup_K and B(o, r_max): the
  // inner ball is a distance filter over the same result.
  auto outer = locator_.BallWithDistances(poi.position, 2.0 * options_.r_max,
                                          &engine_);
  sup_masks_.resize(sup_masks_.size() + mask_words_, 0);
  uint64_t* mask = mutable_sup_mask(id);
  std::vector<std::pair<PoiId, double>> inner;
  for (const auto& [other, dist] : outer) {
    AddKeywords(other, mask);
    if (dist <= options_.r_max) inner.emplace_back(other, dist);
  }
  balls_.emplace_back();
  StoreBall(id, std::move(inner));
  return outer;
}

void PoiIndex::StoreBall(PoiId id,
                         std::vector<std::pair<PoiId, double>> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.second, a.first) < std::tie(b.second, b.first);
            });
  BallRange& range = balls_[id];
  const size_t old_size = range.size();
  if (entries.size() > old_size) {  // Append; the old entries go dead.
    range.begin = ball_ids_.size();
    ball_ids_.resize(range.begin + entries.size());
    ball_dists_.resize(range.begin + entries.size());
    ball_masks_.resize((range.begin + entries.size()) * mask_words_);
  }
  range.end = range.begin + entries.size();
  uint64_t* mask = ball_masks_.data() + range.begin * mask_words_;
  for (size_t i = 0; i < entries.size(); ++i, mask += mask_words_) {
    const auto& [other, dist] = entries[i];
    ball_ids_[range.begin + i] = other;
    ball_dists_[range.begin + i] = dist;
    if (i == 0) {
      std::fill_n(mask, mask_words_, 0);
    } else {
      std::copy_n(mask - mask_words_, mask_words_, mask);
    }
    AddKeywords(other, mask);
  }
  live_ball_entries_ = live_ball_entries_ - old_size + entries.size();
  if (ball_ids_.size() - live_ball_entries_ > live_ball_entries_) {
    CompactBalls();
  }
}

void PoiIndex::CompactBalls() {
  std::vector<PoiId> ids;
  std::vector<double> dists;
  std::vector<uint64_t> masks;
  ids.reserve(live_ball_entries_);
  dists.reserve(live_ball_entries_);
  masks.reserve(live_ball_entries_ * mask_words_);
  for (BallRange& range : balls_) {
    const size_t begin = ids.size();
    ids.insert(ids.end(), ball_ids_.begin() + range.begin,
               ball_ids_.begin() + range.end);
    dists.insert(dists.end(), ball_dists_.begin() + range.begin,
                 ball_dists_.begin() + range.end);
    masks.insert(masks.end(), ball_masks_.begin() + range.begin * mask_words_,
                 ball_masks_.begin() + range.end * mask_words_);
    range = {begin, ids.size()};
  }
  ball_ids_ = std::move(ids);
  ball_dists_ = std::move(dists);
  ball_masks_ = std::move(masks);
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
  const int n = static_cast<int>(balls_.size());
  poi_page_.resize(n);
  for (PoiId id = 0; id < n; ++id) {
    // The payload record holds sup_K as its mask, as a node holds V_sup.
    const uint32_t bytes =
        static_cast<uint32_t>(24 + 8 * mask_words_ + 8 * num_pivots_);
    poi_page_[id] = alloc.Place(bytes);
  }
  num_pages_ = alloc.pages_used();
}

Status PoiIndex::InsertPoi(PoiId id) {
  if (id != static_cast<PoiId>(balls_.size())) {
    return Status::InvalidArgument(
        "InsertPoi expects the id just appended to the network");
  }
  if (id >= ssn_->num_pois()) {
    return Status::InvalidArgument("POI id not present in the network");
  }
  const Poi& poi = ssn_->poi(id);

  AppendKeywordMask(id);
  const auto reverse = AppendPoi(id);

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
    AddKeywords(id, mutable_sup_mask(other));
    if (dist <= refresh_radius) {
      StoreBall(other, locator_.BallWithDistances(
                           ssn_->poi(other).position, options_.r_max,
                           &engine_));
    }
  }

  tree_.Insert(poi.location, id);
  RebuildNodeAugmentations();
  return Status::OK();
}

}  // namespace gpssn
