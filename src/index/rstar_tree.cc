#include "index/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace gpssn {

namespace {
// Fraction of entries force-reinserted on a level's first overflow.
constexpr double kReinsertFraction = 0.3;
}  // namespace

RStarTree::RStarTree(Options options) : options_(options) {
  GPSSN_CHECK(options_.max_entries >= 4);
  root_ = NewNode(0);
}

int RStarTree::min_entries() const {
  // 40% of the maximum, the R*-tree paper's recommendation.
  return std::max(2, options_.max_entries * 2 / 5);
}

RNodeId RStarTree::NewNode(int32_t level) {
  nodes_.push_back(RTreeNode{level, {}});
  return static_cast<RNodeId>(nodes_.size() - 1);
}

Rect RStarTree::NodeMbr(RNodeId id) const {
  Rect r;
  for (const RTreeEntry& e : nodes_[id].entries) r.ExtendRect(e.mbr);
  return r;
}

Rect RStarTree::bounds() const { return NodeMbr(root_); }

void RStarTree::Insert(const Point& p, int32_t object_id) {
  GPSSN_CHECK(object_id >= 0);
  InsertEntry(RTreeEntry{Rect::FromPoint(p), object_id}, /*target_level=*/0);
  ++size_;
}

RNodeId RStarTree::ChooseSubtree(const Rect& mbr, int32_t target_level,
                                 std::vector<RNodeId>* path) const {
  RNodeId current = root_;
  path->clear();
  path->push_back(current);
  while (nodes_[current].level > target_level) {
    const RTreeNode& node = nodes_[current];
    const bool children_are_leaves = node.level == 1;
    int best = -1;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Rect& r = node.entries[i].mbr;
      const double enlarge = r.Enlargement(mbr);
      const double area = r.Area();
      double overlap_delta = 0.0;
      if (children_are_leaves && target_level == 0) {
        // Overlap enlargement against the sibling entries.
        Rect grown = r;
        grown.ExtendRect(mbr);
        for (size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          overlap_delta += grown.OverlapArea(node.entries[j].mbr) -
                           r.OverlapArea(node.entries[j].mbr);
        }
      }
      const bool better =
          (children_are_leaves && target_level == 0)
              ? (overlap_delta < best_overlap ||
                 (overlap_delta == best_overlap &&
                  (enlarge < best_enlarge ||
                   (enlarge == best_enlarge && area < best_area))))
              : (enlarge < best_enlarge ||
                 (enlarge == best_enlarge && area < best_area));
      if (better) {
        best = static_cast<int>(i);
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    GPSSN_CHECK(best >= 0);
    current = node.entries[best].id;
    path->push_back(current);
  }
  return current;
}

void RStarTree::AdjustPath(const std::vector<RNodeId>& path) {
  for (int i = static_cast<int>(path.size()) - 1; i >= 1; --i) {
    const RNodeId child = path[i];
    const RNodeId parent = path[i - 1];
    const Rect child_mbr = NodeMbr(child);
    for (RTreeEntry& e : nodes_[parent].entries) {
      if (e.id == child) {
        e.mbr = child_mbr;
        break;
      }
    }
  }
}

void RStarTree::InsertEntry(const RTreeEntry& entry, int32_t target_level) {
  std::vector<bool> reinserted_on_level(nodes_[root_].level + 1, false);
  // The first call may trigger forced reinserts, which recurse through the
  // same machinery but share the per-level flags.
  struct Frame {
    RTreeEntry entry;
    int32_t level;
  };
  std::vector<Frame> stack = {{entry, target_level}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();

    std::vector<RNodeId> path;
    const RNodeId target = ChooseSubtree(frame.entry.mbr, frame.level, &path);
    nodes_[target].entries.push_back(frame.entry);
    AdjustPath(path);

    // Handle overflow bottom-up.
    for (int idx = static_cast<int>(path.size()) - 1; idx >= 0; --idx) {
      const RNodeId node_id = path[idx];
      if (static_cast<int>(nodes_[node_id].entries.size()) <=
          options_.max_entries) {
        break;
      }
      const int32_t level = nodes_[node_id].level;
      if (node_id != root_ &&
          level < static_cast<int32_t>(reinserted_on_level.size()) &&
          !reinserted_on_level[level]) {
        // --- Forced reinsert (R* OverflowTreatment, first time per level).
        reinserted_on_level[level] = true;
        RTreeNode& node = nodes_[node_id];
        const Point center = NodeMbr(node_id).Center();
        std::vector<std::pair<double, size_t>> by_dist(node.entries.size());
        for (size_t i = 0; i < node.entries.size(); ++i) {
          by_dist[i] = {SquaredDistance(node.entries[i].mbr.Center(), center),
                        i};
        }
        std::sort(by_dist.begin(), by_dist.end());
        const int p = std::max(
            1, static_cast<int>(kReinsertFraction *
                                static_cast<double>(node.entries.size())));
        // Remove the p farthest entries; reinsert closest-first
        // ("close reinsert").
        std::vector<bool> keep(node.entries.size(), true);
        for (size_t i = by_dist.size() - p; i < by_dist.size(); ++i) {
          keep[by_dist[i].second] = false;
        }
        std::vector<RTreeEntry> kept;
        kept.reserve(node.entries.size() - p);
        std::vector<RTreeEntry> removed;  // Farthest-last == pop closest...
        for (size_t i = 0; i < node.entries.size(); ++i) {
          if (keep[i]) kept.push_back(node.entries[i]);
        }
        // Push farthest first so the LIFO pops closest-first
        // ("close reinsert" of the R*-tree paper).
        for (size_t i = by_dist.size(); i-- > by_dist.size() - p;) {
          removed.push_back(node.entries[by_dist[i].second]);
        }
        node.entries = std::move(kept);
        AdjustPath(path);
        for (const RTreeEntry& r : removed) {
          stack.push_back(Frame{r, level});
        }
        break;  // Path may be restructured by the pending reinserts.
      }

      // --- Split.
      const RNodeId sibling = Split(node_id);
      if (node_id == root_) {
        const RNodeId new_root = NewNode(nodes_[node_id].level + 1);
        nodes_[new_root].entries.push_back(
            RTreeEntry{NodeMbr(node_id), node_id});
        nodes_[new_root].entries.push_back(
            RTreeEntry{NodeMbr(sibling), sibling});
        root_ = new_root;
        reinserted_on_level.resize(nodes_[root_].level + 1, false);
        break;
      }
      const RNodeId parent = path[idx - 1];
      // Refresh this node's slot and register the sibling.
      for (RTreeEntry& e : nodes_[parent].entries) {
        if (e.id == node_id) {
          e.mbr = NodeMbr(node_id);
          break;
        }
      }
      nodes_[parent].entries.push_back(RTreeEntry{NodeMbr(sibling), sibling});
      AdjustPath(path);  // Parent MBRs may have shifted.
    }
  }
}

RNodeId RStarTree::Split(RNodeId node_id) {
  RTreeNode& node = nodes_[node_id];
  std::vector<RTreeEntry> entries = std::move(node.entries);
  const int total = static_cast<int>(entries.size());
  const int m = min_entries();
  const int num_dists = total - 2 * m + 1;  // k = 1..(M-2m+2), total = M+1.
  GPSSN_CHECK(num_dists >= 1);

  // ChooseSplitAxis: minimize the margin sum over all distributions of both
  // sort orders per axis.
  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  std::vector<RTreeEntry> best_sorted;
  for (int axis = 0; axis < 2; ++axis) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<RTreeEntry> sorted = entries;
      std::sort(sorted.begin(), sorted.end(),
                [axis, by_upper](const RTreeEntry& a, const RTreeEntry& b) {
                  const double ka = axis == 0
                                        ? (by_upper ? a.mbr.max_x : a.mbr.min_x)
                                        : (by_upper ? a.mbr.max_y : a.mbr.min_y);
                  const double kb = axis == 0
                                        ? (by_upper ? b.mbr.max_x : b.mbr.min_x)
                                        : (by_upper ? b.mbr.max_y : b.mbr.min_y);
                  return ka < kb;
                });
      // Prefix/suffix MBRs for O(n) margin evaluation.
      std::vector<Rect> prefix(total), suffix(total);
      Rect acc;
      for (int i = 0; i < total; ++i) {
        acc.ExtendRect(sorted[i].mbr);
        prefix[i] = acc;
      }
      acc = Rect();
      for (int i = total - 1; i >= 0; --i) {
        acc.ExtendRect(sorted[i].mbr);
        suffix[i] = acc;
      }
      double margin_sum = 0.0;
      for (int k = 0; k < num_dists; ++k) {
        const int split_at = m + k;  // First group size.
        margin_sum +=
            prefix[split_at - 1].Margin() + suffix[split_at].Margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis = axis;
        best_sorted = std::move(sorted);
      }
    }
  }
  (void)best_axis;

  // ChooseSplitIndex: among the chosen axis's distributions, minimize
  // overlap, tie-break on combined area.
  std::vector<Rect> prefix(total), suffix(total);
  Rect acc;
  for (int i = 0; i < total; ++i) {
    acc.ExtendRect(best_sorted[i].mbr);
    prefix[i] = acc;
  }
  acc = Rect();
  for (int i = total - 1; i >= 0; --i) {
    acc.ExtendRect(best_sorted[i].mbr);
    suffix[i] = acc;
  }
  int best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int k = 0; k < num_dists; ++k) {
    const int split_at = m + k;
    const double overlap = prefix[split_at - 1].OverlapArea(suffix[split_at]);
    const double area = prefix[split_at - 1].Area() + suffix[split_at].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split_at;
    }
  }

  node.entries.assign(best_sorted.begin(), best_sorted.begin() + best_split);
  const RNodeId sibling = NewNode(node.level);
  nodes_[sibling].entries.assign(best_sorted.begin() + best_split,
                                 best_sorted.end());
  return sibling;
}

void RStarTree::RangeQuery(const Rect& query, std::vector<int32_t>* out) const {
  std::vector<RNodeId> stack = {root_};
  while (!stack.empty()) {
    const RNodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& node = nodes_[id];
    for (const RTreeEntry& e : node.entries) {
      if (!query.Intersects(e.mbr)) continue;
      if (node.is_leaf()) {
        out->push_back(e.id);
      } else {
        stack.push_back(e.id);
      }
    }
  }
}

void RStarTree::CircleQuery(const Point& center, double radius,
                            std::vector<int32_t>* out) const {
  const Rect box{center.x - radius, center.y - radius, center.x + radius,
                 center.y + radius};
  std::vector<RNodeId> stack = {root_};
  while (!stack.empty()) {
    const RNodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& node = nodes_[id];
    for (const RTreeEntry& e : node.entries) {
      if (!box.Intersects(e.mbr)) continue;
      if (node.is_leaf()) {
        if (EuclideanDistance(center, e.mbr.Center()) <= radius) {
          out->push_back(e.id);
        }
      } else if (MinDist(center, e.mbr) <= radius) {
        stack.push_back(e.id);
      }
    }
  }
}

bool RStarTree::CheckInvariants() const {
  struct Item {
    RNodeId id;
    bool is_root;
  };
  std::vector<Item> stack = {{root_, true}};
  int leaf_objects = 0;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const RTreeNode& node = nodes_[item.id];
    const int count = static_cast<int>(node.entries.size());
    if (count > options_.max_entries) return false;
    if (!item.is_root && count < min_entries()) return false;
    if (item.is_root && !node.is_leaf() && count < 2) return false;
    if (node.is_leaf()) {
      leaf_objects += count;
      continue;
    }
    for (const RTreeEntry& e : node.entries) {
      const RTreeNode& child = nodes_[e.id];
      if (child.level != node.level - 1) return false;
      if (!(NodeMbr(e.id) == e.mbr)) return false;
      stack.push_back({e.id, false});
    }
  }
  return leaf_objects == size_;
}

}  // namespace gpssn
