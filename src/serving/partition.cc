#include "serving/partition.h"

#include <cstddef>

namespace gpssn::serving {
namespace {

/// Packs the ordered frontier `nodes` into `num_shards` contiguous groups,
/// greedily balanced against the ideal cumulative weight. Guarantees no
/// shard is left empty while enough nodes remain for the shards after it.
template <typename NodeId, typename WeightOf>
std::vector<std::vector<NodeId>> PackContiguous(
    const std::vector<NodeId>& nodes, int num_shards, WeightOf weight_of) {
  double total = 0.0;
  for (NodeId id : nodes) total += weight_of(id);
  std::vector<std::vector<NodeId>> groups(num_shards);
  int shard = 0;
  double acc = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    groups[shard].push_back(nodes[i]);
    acc += weight_of(nodes[i]);
    const size_t left = nodes.size() - i - 1;
    const size_t shards_left = static_cast<size_t>(num_shards - shard - 1);
    if (shard + 1 < num_shards &&
        (acc >= total * (shard + 1) / num_shards || left <= shards_left)) {
      ++shard;
    }
  }
  return groups;
}

/// Grows a left-to-right frontier from `root`: every round replaces each
/// internal node with its children (leaves keep their place), stopping as
/// soon as the frontier can seed `num_shards` groups or only leaves
/// remain. The expansion is level-synchronous, so the frontier always
/// enumerates the tree's leaves in single-node descent order.
template <typename NodeId, typename ChildrenOf, typename IsLeaf>
std::vector<NodeId> GrowFrontier(NodeId root, int num_shards,
                                 ChildrenOf children_of, IsLeaf is_leaf) {
  std::vector<NodeId> frontier{root};
  for (;;) {
    if (static_cast<int>(frontier.size()) >= num_shards) break;
    bool any_internal = false;
    for (NodeId id : frontier) {
      if (!is_leaf(id)) {
        any_internal = true;
        break;
      }
    }
    if (!any_internal) break;
    std::vector<NodeId> next;
    next.reserve(frontier.size() * 2);
    for (NodeId id : frontier) {
      if (is_leaf(id)) {
        next.push_back(id);
        continue;
      }
      for (NodeId child : children_of(id)) next.push_back(child);
    }
    frontier = std::move(next);
  }
  return frontier;
}

}  // namespace

Result<ServingPartition> MakeServingPartition(const SocialIndex& social,
                                              const PoiIndex& poi,
                                              int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ServingPartition partition;
  partition.scopes.resize(num_shards);

  // --- Social side: partition-tree subtrees.
  const std::vector<SNodeId> s_frontier = GrowFrontier<SNodeId>(
      social.root(), num_shards,
      [&](SNodeId id) -> std::vector<SNodeId> {
        return social.node(id).children;
      },
      [&](SNodeId id) { return social.node(id).is_leaf(); });
  auto s_groups = PackContiguous<SNodeId>(
      s_frontier, num_shards,
      [&](SNodeId id) { return double(social.node(id).subtree_users); });
  for (int s = 0; s < num_shards; ++s) {
    partition.scopes[s].social_roots = std::move(s_groups[s]);
  }

  // --- Road side: R*-tree regions.
  const RStarTree& tree = poi.tree();
  const std::vector<RNodeId> r_frontier = GrowFrontier<RNodeId>(
      tree.root(), num_shards,
      [&](RNodeId id) {
        std::vector<RNodeId> children;
        for (const RTreeEntry& e : tree.node(id).entries) {
          children.push_back(e.id);
        }
        return children;
      },
      [&](RNodeId id) { return tree.node(id).is_leaf(); });
  auto r_groups = PackContiguous<RNodeId>(
      r_frontier, num_shards,
      [&](RNodeId id) { return double(poi.node_aug(id).subtree_pois); });
  for (int s = 0; s < num_shards; ++s) {
    partition.scopes[s].road_roots = std::move(r_groups[s]);
  }

  // --- COVERAGE: one walk over the scopes, each user and POI met once.
  std::vector<uint8_t> user_seen(social.ssn().num_users(), 0);
  std::vector<uint8_t> poi_seen(social.ssn().num_pois(), 0);
  size_t users_seen = 0, pois_seen = 0;
  for (const ShardScope& scope : partition.scopes) {
    std::vector<SNodeId> stack(scope.social_roots);
    while (!stack.empty()) {
      const SocialIndexNode& node = social.node(stack.back());
      stack.pop_back();
      for (SNodeId child : node.children) stack.push_back(child);
      for (UserId u : node.users) {
        if (user_seen[u]) return Status::Internal("user owned by two shards");
        user_seen[u] = 1;
        ++users_seen;
      }
    }
    std::vector<RNodeId> r_stack(scope.road_roots);
    while (!r_stack.empty()) {
      const RTreeNode& node = tree.node(r_stack.back());
      r_stack.pop_back();
      for (const RTreeEntry& e : node.entries) {
        if (!node.is_leaf()) {
          r_stack.push_back(e.id);
          continue;
        }
        if (poi_seen[e.id]) return Status::Internal("poi owned by two shards");
        poi_seen[e.id] = 1;
        ++pois_seen;
      }
    }
  }
  if (users_seen != user_seen.size()) {
    return Status::Internal("user not covered by any shard");
  }
  if (pois_seen != poi_seen.size()) {
    return Status::Internal("poi not covered by any shard");
  }
  return partition;
}

}  // namespace gpssn::serving
