#include "index/social_index.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"
#include "socialnet/partitioner.h"

namespace gpssn {

namespace {

// Elementwise min/max merge helpers.
template <typename T>
void MergeBounds(std::vector<T>* lb, std::vector<T>* ub,
                 const std::vector<T>& child_lb, const std::vector<T>& child_ub) {
  for (size_t i = 0; i < lb->size(); ++i) {
    (*lb)[i] = std::min((*lb)[i], child_lb[i]);
    (*ub)[i] = std::max((*ub)[i], child_ub[i]);
  }
}

}  // namespace

SocialIndex::SocialIndex(const SpatialSocialNetwork* ssn,
                         const SocialPivotTable* social_pivots,
                         const RoadPivotTable* road_pivots,
                         const SocialIndexOptions& options)
    : ssn_(ssn),
      social_pivots_(social_pivots),
      road_pivots_(road_pivots),
      options_(options),
      num_pivots_(static_cast<size_t>(road_pivots->num_pivots())) {
  GPSSN_CHECK(ssn != nullptr && social_pivots != nullptr &&
              road_pivots != nullptr);
  GPSSN_CHECK(options.fanout >= 2);
  const SocialNetwork& social = ssn->social();
  const int m = social.num_users();
  GPSSN_CHECK(m > 0);
  const int d = social.num_topics();
  const int l = social_pivots->num_pivots();
  const int h = road_pivots->num_pivots();

  // --- Exact per-user road-pivot distances (leaf payload, Section 4.1).
  user_pivot_rows_.reserve(static_cast<size_t>(m) * num_pivots_);
  for (UserId u = 0; u < m; ++u) {
    const std::vector<double> row =
        road_pivots->PositionDistances(ssn->user_home(u));
    user_pivot_rows_.insert(user_pivot_rows_.end(), row.begin(), row.end());
  }

  // --- Leaf level: graph partition cells.
  const PartitionResult partition =
      PartitionSocialNetwork(social, options.leaf_cell_size, options.seed);

  auto init_bounds = [&](SocialIndexNode* node) {
    node->lb_w.assign(d, std::numeric_limits<double>::infinity());
    node->ub_w.assign(d, -std::numeric_limits<double>::infinity());
    node->lb_sp.assign(l, std::numeric_limits<int>::max());
    node->ub_sp.assign(l, std::numeric_limits<int>::min());
  };

  // Materialize only non-empty cells (the partitioner may leave some cell
  // ids unused).
  std::vector<std::vector<UserId>> cell_users(partition.num_cells);
  for (UserId u = 0; u < m; ++u) cell_users[partition.cell[u]].push_back(u);

  std::vector<SNodeId> current_level;  // Node ids of the level being built.
  nodes_.reserve(2 * partition.num_cells + 2);
  std::vector<SNodeId> node_of_cell(partition.num_cells, -1);
  for (int c = 0; c < partition.num_cells; ++c) {
    if (cell_users[c].empty()) continue;
    SocialIndexNode node;
    node.level = 0;
    init_bounds(&node);
    nodes_.push_back(std::move(node));
    node_of_cell[c] = static_cast<SNodeId>(nodes_.size() - 1);
    current_level.push_back(node_of_cell[c]);
  }
  for (UserId u = 0; u < m; ++u) {
    SocialIndexNode& leaf = nodes_[node_of_cell[partition.cell[u]]];
    leaf.users.push_back(u);
    const auto w = social.Interests(u);
    for (int f = 0; f < d; ++f) {
      leaf.lb_w[f] = std::min(leaf.lb_w[f], w[f]);
      leaf.ub_w[f] = std::max(leaf.ub_w[f], w[f]);
    }
    for (int k = 0; k < l; ++k) {
      const int hops = social_pivots->UserToPivot(u, k);
      leaf.lb_sp[k] = std::min(leaf.lb_sp[k], hops);
      leaf.ub_sp[k] = std::max(leaf.ub_sp[k], hops);
    }
  }
  for (SNodeId id : current_level) {
    nodes_[id].subtree_users = static_cast<int>(nodes_[id].users.size());
  }
  GPSSN_CHECK(!current_level.empty());

  // Map each user to its node at the current level, for connectivity-aware
  // grouping.
  std::vector<int> node_of_user(m, -1);
  auto refresh_user_map = [&]() {
    for (size_t i = 0; i < current_level.size(); ++i) {
      // Collect users under node i of the current level.
      std::vector<SNodeId> stack = {current_level[i]};
      while (!stack.empty()) {
        const SNodeId nid = stack.back();
        stack.pop_back();
        const SocialIndexNode& node = nodes_[nid];
        if (node.is_leaf()) {
          for (UserId u : node.users) node_of_user[u] = static_cast<int>(i);
        } else {
          stack.insert(stack.end(), node.children.begin(), node.children.end());
        }
      }
    }
  };

  // --- Build upper levels until a single root remains.
  int level = 1;
  Rng rng(options.seed ^ 0x5351ULL);
  while (current_level.size() > 1) {
    refresh_user_map();
    const int num_current = static_cast<int>(current_level.size());
    // Adjacency between current-level nodes (via cross friendships).
    std::vector<std::vector<int>> adj(num_current);
    for (UserId u = 0; u < m; ++u) {
      for (UserId v : social.Friends(u)) {
        if (u >= v) continue;
        const int a = node_of_user[u], b = node_of_user[v];
        if (a != b) {
          adj[a].push_back(b);
          adj[b].push_back(a);
        }
      }
    }
    for (auto& list : adj) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    // Greedy BFS grouping into groups of <= fanout connected nodes.
    std::vector<int> group(num_current, -1);
    int num_groups = 0;
    std::vector<int> order(num_current);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);
    for (int seed_node : order) {
      if (group[seed_node] >= 0) continue;
      const int g = num_groups++;
      group[seed_node] = g;
      std::vector<int> frontier = {seed_node};
      int members = 1;
      for (size_t head = 0; head < frontier.size() && members < options.fanout;
           ++head) {
        for (int nb : adj[frontier[head]]) {
          if (group[nb] >= 0) continue;
          group[nb] = g;
          frontier.push_back(nb);
          if (++members >= options.fanout) break;
        }
      }
    }

    std::vector<SNodeId> next_level(num_groups, -1);
    for (int i = 0; i < num_current; ++i) {
      const int g = group[i];
      if (next_level[g] < 0) {
        SocialIndexNode parent;
        parent.level = level;
        init_bounds(&parent);
        nodes_.push_back(std::move(parent));
        next_level[g] = static_cast<SNodeId>(nodes_.size() - 1);
      }
      SocialIndexNode& parent = nodes_[next_level[g]];
      parent.children.push_back(current_level[i]);
      const SocialIndexNode& child = nodes_[current_level[i]];
      parent.subtree_users += child.subtree_users;
      MergeBounds(&parent.lb_w, &parent.ub_w, child.lb_w, child.ub_w);
      MergeBounds(&parent.lb_sp, &parent.ub_sp, child.lb_sp, child.ub_sp);
    }
    current_level = std::move(next_level);
    ++level;
  }
  root_ = current_level.front();

  // --- Navigation structures for dynamic maintenance.
  parent_.assign(nodes_.size(), -1);
  leaf_of_user_.assign(m, -1);
  for (SNodeId id = 0; id < static_cast<SNodeId>(nodes_.size()); ++id) {
    for (SNodeId child : nodes_[id].children) parent_[child] = id;
    for (UserId u : nodes_[id].users) leaf_of_user_[u] = id;
  }

  // --- Page layout: nodes breadth-first from the root, then user records,
  // below I_R's page range.
  PageAllocator alloc(kIndexPageSize, /*first_page=*/0, kPoiIndexFirstPage);
  {
    std::vector<SNodeId> queue = {root_};
    for (size_t head = 0; head < queue.size(); ++head) {
      const SNodeId id = queue[head];
      SocialIndexNode& node = nodes_[id];
      const uint32_t bytes = static_cast<uint32_t>(
          16 + 16 * d + 8 * l + 4 * node.children.size() +
          4 * node.users.size());
      node.page = alloc.Place(bytes);
      queue.insert(queue.end(), node.children.begin(), node.children.end());
    }
  }
  user_page_.resize(m);
  for (UserId u = 0; u < m; ++u) {
    const uint32_t bytes =
        static_cast<uint32_t>(8 + 8 * d + 4 * l + 8 * h +
                              4 * social.Degree(u));
    user_page_[u] = alloc.Place(bytes);
  }
  num_pages_ = alloc.pages_used();
}

Status SocialIndex::UpdateUserInterests(UserId u) {
  if (u < 0 || u >= static_cast<UserId>(leaf_of_user_.size())) {
    return Status::InvalidArgument("user out of range");
  }
  const int d = ssn_->num_topics();
  const SocialNetwork& social = ssn_->social();
  // Exact recomputation of the interest boxes along the leaf-to-root path.
  // The leaf reads its members' runs: a topic some member does not hold
  // has lower bound 0, and one no member holds has upper bound 0 too.
  for (SNodeId id = leaf_of_user_[u]; id != -1; id = parent_[id]) {
    SocialIndexNode& node = nodes_[id];
    if (node.is_leaf()) {
      node.lb_w.assign(d, std::numeric_limits<double>::infinity());
      node.ub_w.assign(d, 0.0);
      holders_.assign(d, 0);
      for (UserId member : node.users) {
        const InterestRun run = social.Run(member);
        for (size_t i = 0; i < run.size(); ++i) {
          const KeywordId f = run.topics[i];
          node.lb_w[f] = std::min(node.lb_w[f], run.weights[i]);
          node.ub_w[f] = std::max(node.ub_w[f], run.weights[i]);
          ++holders_[f];
        }
      }
      for (int f = 0; f < d; ++f) {
        if (holders_[f] < node.users.size()) node.lb_w[f] = 0.0;
      }
    } else {
      node.lb_w.assign(d, std::numeric_limits<double>::infinity());
      node.ub_w.assign(d, -std::numeric_limits<double>::infinity());
      for (SNodeId child : node.children) {
        const SocialIndexNode& c = nodes_[child];
        for (int f = 0; f < d; ++f) {
          node.lb_w[f] = std::min(node.lb_w[f], c.lb_w[f]);
          node.ub_w[f] = std::max(node.ub_w[f], c.ub_w[f]);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace gpssn
