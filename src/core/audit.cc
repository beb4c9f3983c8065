#include "core/audit.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <tuple>

#include "common/macros.h"
#include "core/scores.h"

namespace gpssn {

namespace {

// Relative slack for comparing a recomputed exact road distance against a
// pivot bound: both sides are sums of the same edge weights, so anything
// beyond accumulated rounding is a genuine violation.
double DistanceSlack(double reference) {
  return 1e-9 * std::max(1.0, std::abs(reference));
}

void AddIssue(AuditReport* report, std::string check, int32_t node,
              std::string detail) {
  report->issues.push_back(
      AuditIssue{std::move(check), node, std::move(detail)});
}

std::string FormatIssue(const AuditIssue& issue) {
  std::ostringstream os;
  os << issue.check;
  if (issue.node >= 0) os << " @node " << issue.node;
  os << ": " << issue.detail;
  return os.str();
}

// Evenly-strided deterministic sample of [0, n): indices 0, s, 2s, ...
// covering at most `limit` elements.
template <typename Fn>
void ForSampledIndices(size_t n, int limit, Fn&& fn) {
  if (n == 0 || limit <= 0) return;
  const size_t stride =
      std::max<size_t>(1, n / static_cast<size_t>(limit));
  int taken = 0;
  for (size_t i = 0; i < n && taken < limit; i += stride, ++taken) {
    fn(i);
  }
}

}  // namespace

std::string AuditReport::ToString() const {
  if (ok()) return "ok";
  std::ostringstream os;
  for (size_t i = 0; i < issues.size(); ++i) {
    if (i > 0) os << '\n';
    os << FormatIssue(issues[i]);
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Structural validators.
// ---------------------------------------------------------------------------

AuditReport AuditRStarTree(const RStarTree& tree) {
  AuditReport report;
  if (tree.size() == 0) return report;

  const int max_entries = tree.options().max_entries;
  // Mirrors RStarTree::min_entries(): 40% of the maximum, the R*-tree
  // paper's recommendation.
  const int min_entries = std::max(2, max_entries * 2 / 5);

  std::vector<char> seen(tree.num_nodes(), 0);
  std::vector<RNodeId> stack = {tree.root()};
  const int root_level = tree.node(tree.root()).level;
  int64_t leaf_objects = 0;
  seen[tree.root()] = 1;

  while (!stack.empty()) {
    const RNodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& node = tree.node(id);

    const int count = static_cast<int>(node.entries.size());
    if (count > max_entries) {
      AddIssue(&report, "rtree-fanout-max", id,
               "holds " + std::to_string(count) + " entries, max is " +
                   std::to_string(max_entries));
    }
    if (id != tree.root() && count < min_entries) {
      AddIssue(&report, "rtree-fanout-min", id,
               "holds " + std::to_string(count) + " entries, min fill is " +
                   std::to_string(min_entries));
    }
    if (id == tree.root() && !node.is_leaf() && count < 2) {
      AddIssue(&report, "rtree-root-fanout", id,
               "non-leaf root with " + std::to_string(count) + " children");
    }
    if (node.level < 0 || node.level > root_level) {
      AddIssue(&report, "rtree-level-range", id,
               "level " + std::to_string(node.level) + " outside [0, " +
                   std::to_string(root_level) + "]");
    }

    if (node.is_leaf()) {
      leaf_objects += count;
      continue;
    }
    for (const RTreeEntry& entry : node.entries) {
      if (entry.id < 0 || entry.id >= tree.num_nodes()) {
        AddIssue(&report, "rtree-child-id", id,
                 "child id " + std::to_string(entry.id) + " out of range");
        continue;
      }
      const RTreeNode& child = tree.node(entry.id);
      // Uniform leaf depth follows inductively from every child sitting
      // exactly one level below its parent.
      if (child.level != node.level - 1) {
        AddIssue(&report, "rtree-level-coherence", entry.id,
                 "child level " + std::to_string(child.level) +
                     " under parent level " + std::to_string(node.level));
      }
      if (seen[entry.id]) {
        AddIssue(&report, "rtree-shared-child", entry.id,
                 "node reachable through more than one parent");
        continue;
      }
      seen[entry.id] = 1;
      // The parent entry's MBR must contain every entry of the child
      // (AdjustPath keeps it exactly tight, but containment is the
      // invariant traversal correctness rests on).
      Rect child_union;
      for (const RTreeEntry& ce : child.entries) {
        child_union.ExtendRect(ce.mbr);
      }
      if (!child.entries.empty() && !entry.mbr.ContainsRect(child_union)) {
        std::ostringstream os;
        os << "parent entry MBR [" << entry.mbr.min_x << "," << entry.mbr.min_y
           << "," << entry.mbr.max_x << "," << entry.mbr.max_y
           << "] does not contain child union [" << child_union.min_x << ","
           << child_union.min_y << "," << child_union.max_x << ","
           << child_union.max_y << "]";
        AddIssue(&report, "rtree-mbr-containment", entry.id, os.str());
      }
      stack.push_back(entry.id);
    }
  }

  if (leaf_objects != tree.size()) {
    AddIssue(&report, "rtree-object-count", tree.root(),
             "leaves hold " + std::to_string(leaf_objects) +
                 " objects, tree reports " + std::to_string(tree.size()));
  }
  return report;
}

AuditReport AuditPoiIndex(const PoiIndex& index) {
  AuditReport report = AuditRStarTree(index.tree());
  const RStarTree& tree = index.tree();
  if (tree.size() == 0) return report;

  // Per-POI invariants: the stored B(o, r_max) holds o at distance 0,
  // every distance lies in [0, r_max], its entries ascend by (distance,
  // id), it equals a fresh reference search as a set with its distance
  // bits, each entry's mask is the keyword union of the entries up to it,
  // and the pivot row equals fresh pivot distances.
  const SpatialSocialNetwork& ssn = index.ssn();
  const double r_max = index.options().r_max;
  const size_t words = KeywordMaskWords(ssn.num_topics());
  DijkstraEngine engine(&ssn.road());
  PoiLocator locator(&ssn.road(), &ssn.pois());
  const int num_pois = ssn.num_pois();
  std::vector<uint64_t> running(words);
  for (PoiId id = 0; id < num_pois; ++id) {
    const std::span<const PoiId> ids = index.ball_ids(id);
    const std::span<const double> dists = index.ball_dists(id);
    const std::string poi = "poi " + std::to_string(id) + ": ";
    std::vector<std::pair<PoiId, double>> stored;
    for (size_t i = 0; i < ids.size(); ++i) {
      stored.emplace_back(ids[i], dists[i]);
    }
    if (std::find(stored.begin(), stored.end(),
                  std::pair<PoiId, double>(id, 0.0)) == stored.end()) {
      AddIssue(&report, "poi-ball", -1,
               poi + "ball misses the POI itself at distance 0");
    }
    for (const auto& [member, d] : stored) {
      if (!(d >= 0.0 && d <= r_max)) {
        std::ostringstream os;
        os << poi << "member " << member << " at distance " << d
           << " outside [0, r_max = " << r_max << "]";
        AddIssue(&report, "poi-ball", -1, os.str());
        break;
      }
    }
    const auto by_distance = [](const auto& a, const auto& b) {
      return std::tie(a.second, a.first) < std::tie(b.second, b.first);
    };
    const auto disorder =
        std::adjacent_find(stored.begin(), stored.end(),
                           [&](const auto& a, const auto& b) {
                             return !by_distance(a, b);
                           });
    if (disorder != stored.end()) {
      AddIssue(&report, "poi-ball-order", -1,
               poi + "entry " + std::to_string(disorder - stored.begin()) +
                   " does not precede the next in (distance, id) order");
    }
    auto fresh =
        locator.BallWithDistances(ssn.poi(id).position, r_max, &engine);
    std::sort(fresh.begin(), fresh.end(), by_distance);
    std::sort(stored.begin(), stored.end(), by_distance);
    if (stored != fresh) {
      AddIssue(&report, "poi-ball", -1,
               poi + "ball (" + std::to_string(stored.size()) +
                   " entries) differs from a fresh B(o, r_max) search (" +
                   std::to_string(fresh.size()) + " entries)");
    }
    std::fill(running.begin(), running.end(), 0);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] < 0 || ids[i] >= num_pois) break;  // Reported above.
      AddToKeywordMask(ssn.poi(ids[i]).keywords, ssn.num_topics(),
                       running.data());
      if (!std::ranges::equal(index.ball_mask(id, i + 1), running)) {
        AddIssue(&report, "poi-ball-mask", -1,
                 poi + "mask of entry " + std::to_string(i) +
                     " is not the keyword union of the entries up to it");
        break;
      }
    }
    const std::vector<double> pivots =
        index.pivots().PositionDistances(ssn.poi(id).position);
    if (!std::ranges::equal(index.pivot_dists(id), pivots)) {
      AddIssue(&report, "poi-pivot-row", -1,
               poi + "pivot row differs from fresh distances to the " +
                   std::to_string(pivots.size()) + " pivots");
    }
  }

  // Node aggregates, bottom-up via DFS: each node's mask is the OR of its
  // entries' masks and its count the sum of theirs, both recomputed, so a
  // wrong aggregate names its own node and no ancestor.
  struct Frame {
    RNodeId id;
    bool expanded;
  };
  std::vector<Frame> stack = {{tree.root(), false}};
  std::vector<int64_t> subtree_count(tree.num_nodes(), 0);
  std::vector<uint64_t> subtree_mask(
      static_cast<size_t>(tree.num_nodes()) * words, 0);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const RTreeNode& node = tree.node(frame.id);
    if (!frame.expanded && !node.is_leaf()) {
      frame.expanded = true;
      for (const RTreeEntry& entry : node.entries) {
        if (entry.id >= 0 && entry.id < tree.num_nodes()) {
          stack.push_back({entry.id, false});
        }
      }
      continue;
    }
    const RNodeId id = frame.id;
    stack.pop_back();
    const PoiNodeAug& aug = index.node_aug(id);
    int64_t count = 0;
    uint64_t* mask = subtree_mask.data() + static_cast<size_t>(id) * words;
    for (const RTreeEntry& entry : node.entries) {
      // An id out of range is read nowhere: "rtree-child-id" reports a
      // child's, and a POI's leaves its node's count short.
      if (entry.id < 0 ||
          entry.id >= (node.is_leaf() ? num_pois : tree.num_nodes())) {
        continue;
      }
      const uint64_t* entry_mask =
          node.is_leaf()
              ? index.sup_mask(entry.id).data()
              : subtree_mask.data() + static_cast<size_t>(entry.id) * words;
      for (size_t w = 0; w < words; ++w) mask[w] |= entry_mask[w];
      count += node.is_leaf() ? 1 : subtree_count[entry.id];
    }
    subtree_count[id] = count;
    const std::span<const uint64_t> stored = index.node_mask(id);
    for (size_t w = 0; w < words; ++w) {
      const uint64_t diff = stored[w] ^ mask[w];
      if (diff == 0) continue;
      const int bit = std::countr_zero(diff);
      const bool set = (stored[w] >> bit) & 1;
      AddIssue(&report, "poi-node-mask", id,
               "node mask " + std::string(set ? "sets" : "clears") +
                   " keyword " + std::to_string(w * 64 + bit) +
                   ", the OR of its entries' masks " +
                   (set ? "clears" : "sets") + " it");
      break;
    }
    if (aug.subtree_pois != count) {
      AddIssue(&report, "poi-node-subtree-count", id,
               "subtree_pois = " + std::to_string(aug.subtree_pois) +
                   ", actual = " + std::to_string(count));
    }
  }
  return report;
}

AuditReport AuditSocialIndex(const SocialIndex& index) {
  AuditReport report;
  const SpatialSocialNetwork& ssn = index.ssn();
  const SocialNetwork& social = ssn.social();
  const int m = social.num_users();
  const int d = social.num_topics();
  const int l = index.social_pivots().num_pivots();

  // --- Partition disjointness / completeness over the leaf user lists.
  std::vector<SNodeId> owner(m, -1);
  std::vector<char> reachable(index.num_nodes(), 0);
  std::vector<SNodeId> stack = {index.root()};
  reachable[index.root()] = 1;
  while (!stack.empty()) {
    const SNodeId id = stack.back();
    stack.pop_back();
    const SocialIndexNode& node = index.node(id);
    if (node.is_leaf()) {
      if (!node.children.empty()) {
        AddIssue(&report, "social-leaf-children", id,
                 "leaf carries " + std::to_string(node.children.size()) +
                     " children");
      }
      for (UserId u : node.users) {
        if (u < 0 || u >= m) {
          AddIssue(&report, "social-user-range", id,
                   "user id " + std::to_string(u) + " out of range");
          continue;
        }
        if (owner[u] != -1) {
          AddIssue(&report, "social-partition-disjoint", id,
                   "user " + std::to_string(u) + " already owned by leaf " +
                       std::to_string(owner[u]));
          continue;
        }
        owner[u] = id;
        if (index.leaf_of_user(u) != id) {
          AddIssue(&report, "social-leaf-of-user", id,
                   "leaf_of_user(" + std::to_string(u) + ") = " +
                       std::to_string(index.leaf_of_user(u)) +
                       " but the user sits in this leaf");
        }
      }
    } else {
      if (!node.users.empty()) {
        AddIssue(&report, "social-internal-users", id,
                 "internal node carries a user list");
      }
      for (SNodeId child : node.children) {
        if (child < 0 || child >= index.num_nodes()) {
          AddIssue(&report, "social-child-id", id,
                   "child id " + std::to_string(child) + " out of range");
          continue;
        }
        if (index.node(child).level != node.level - 1) {
          AddIssue(&report, "social-level-coherence", child,
                   "child level " + std::to_string(index.node(child).level) +
                       " under parent level " + std::to_string(node.level));
        }
        if (reachable[child]) {
          AddIssue(&report, "social-shared-child", child,
                   "node reachable through more than one parent");
          continue;
        }
        reachable[child] = 1;
        stack.push_back(child);
      }
    }
  }
  for (UserId u = 0; u < m; ++u) {
    if (owner[u] == -1) {
      AddIssue(&report, "social-partition-complete", -1,
               "user " + std::to_string(u) + " reachable from no leaf");
    }
  }

  // --- Each user's road-pivot row (leaf payload) equals fresh distances.
  for (UserId u = 0; u < m; ++u) {
    const std::vector<double> fresh =
        index.road_pivots().PositionDistances(ssn.user_home(u));
    if (!std::ranges::equal(index.user_road_pivot_dists(u), fresh)) {
      AddIssue(&report, "social-pivot-row", index.leaf_of_user(u),
               "user " + std::to_string(u) +
                   " road-pivot row differs from fresh distances to the " +
                   std::to_string(fresh.size()) + " pivots");
    }
  }

  // --- Per-node aggregate bounds, checked directly against the members
  // (DFS user collection per node is O(height · m) total: fine for audits).
  std::vector<UserId> members;
  for (SNodeId id = 0; id < index.num_nodes(); ++id) {
    if (!reachable[id]) continue;
    const SocialIndexNode& node = index.node(id);
    if (static_cast<int>(node.lb_w.size()) != d ||
        static_cast<int>(node.ub_w.size()) != d ||
        static_cast<int>(node.lb_sp.size()) != l ||
        static_cast<int>(node.ub_sp.size()) != l) {
      AddIssue(&report, "social-bound-arity", id,
               "lb/ub vector arity does not match (d, l)");
      continue;
    }
    members.clear();
    std::vector<SNodeId> dfs = {id};
    while (!dfs.empty()) {
      const SocialIndexNode& cur = index.node(dfs.back());
      dfs.pop_back();
      if (cur.is_leaf()) {
        members.insert(members.end(), cur.users.begin(), cur.users.end());
      } else {
        dfs.insert(dfs.end(), cur.children.begin(), cur.children.end());
      }
    }
    if (node.subtree_users != static_cast<int>(members.size())) {
      AddIssue(&report, "social-subtree-count", id,
               "subtree_users = " + std::to_string(node.subtree_users) +
                   ", actual = " + std::to_string(members.size()));
    }
    for (UserId u : members) {
      if (u < 0 || u >= m) continue;  // Reported above.
      const auto w = social.Interests(u);
      for (int f = 0; f < d; ++f) {
        if (w[f] < node.lb_w[f] || w[f] > node.ub_w[f]) {
          std::ostringstream os;
          os << "user " << u << " topic " << f << " weight " << w[f]
             << " outside box [" << node.lb_w[f] << ", " << node.ub_w[f]
             << "] (Eqs. 9-10)";
          AddIssue(&report, "social-interest-box", id, os.str());
          f = d;  // One report per (node, user) pair is enough.
        }
      }
      for (int k = 0; k < l; ++k) {
        const int hops = index.social_pivots().UserToPivot(u, k);
        if (hops < node.lb_sp[k] || hops > node.ub_sp[k]) {
          AddIssue(&report, "social-pivot-hop-box", id,
                   "user " + std::to_string(u) + " pivot " +
                       std::to_string(k) + " hops outside box (Eqs. 11-12)");
          break;
        }
      }
    }
  }
  return report;
}

void AuditIndexesOrDie(const PoiIndex& poi_index,
                       const SocialIndex& social_index) {
  const AuditReport poi_report = AuditPoiIndex(poi_index);
  if (!poi_report.ok()) {
    std::fprintf(stderr, "I_R audit failed:\n%s\n",
                 poi_report.ToString().c_str());
    std::abort();
  }
  const AuditReport social_report = AuditSocialIndex(social_index);
  if (!social_report.ok()) {
    std::fprintf(stderr, "I_S audit failed:\n%s\n",
                 social_report.ToString().c_str());
    std::abort();
  }
}

// ---------------------------------------------------------------------------
// PruningAuditor.
// ---------------------------------------------------------------------------

const char* PruneRuleName(PruneRule rule) {
  switch (rule) {
    case PruneRule::kUserInterest:
      return "user-interest (Lemma 3)";
    case PruneRule::kUserSocialDistance:
      return "user-social-distance (Lemma 4)";
    case PruneRule::kSocialNodeInterest:
      return "social-node-interest (Lemma 8)";
    case PruneRule::kSocialNodeDistance:
      return "social-node-distance (Lemma 9)";
    case PruneRule::kPoiMatch:
      return "poi-match (Lemma 1)";
    case PruneRule::kRoadNodeMatch:
      return "road-node-match (Lemma 6)";
    case PruneRule::kPoiDistanceBound:
      return "poi-distance-bound (Eq. 17)";
    case PruneRule::kPairDistanceBound:
      return "pair-distance-bound (Lemma 5)";
    case PruneRule::kNumRules:
      break;
  }
  return "unknown";
}

PruningAuditor::PruningAuditor(const PoiIndex* poi_index,
                               const SocialIndex* social_index,
                               const PruningAuditorOptions& options)
    : poi_index_(poi_index),
      social_index_(social_index),
      options_(options),
      bfs_(&social_index->ssn().social()),
      engine_(&poi_index->ssn().road()),
      locator_(&poi_index->ssn().road(), &poi_index->ssn().pois()) {
  GPSSN_CHECK(poi_index != nullptr && social_index != nullptr);
  GPSSN_CHECK(&poi_index->ssn() == &social_index->ssn());
  GPSSN_CHECK(options_.sample_period >= 1);
}

bool PruningAuditor::Sample(PruneRule rule) {
  ++events_;
  const uint64_t n = counters_[static_cast<size_t>(rule)]++;
  if (n % options_.sample_period != 0) return false;
  ++samples_;
  return true;
}

void PruningAuditor::Report(PruneRule rule, int32_t node, std::string detail) {
  AuditIssue issue{PruneRuleName(rule), node, std::move(detail)};
  if (options_.abort_on_violation) {
    std::fprintf(stderr, "UNSOUND PRUNE — %s\n", FormatIssue(issue).c_str());
    std::abort();
  }
  issues_.push_back(std::move(issue));
}

void PruningAuditor::EnsureIssuerBfs(const QueryUserContext& ctx) {
  const UserId issuer = ctx.query.issuer;
  const int bound = ctx.query.tau - 1;
  if (bfs_issuer_ == issuer && bfs_bound_ == bound) return;
  bfs_.Run(issuer, bound);
  bfs_issuer_ = issuer;
  bfs_bound_ = bound;
}

void PruningAuditor::CollectSubtreeUsers(SNodeId node,
                                         std::vector<UserId>* out) const {
  std::vector<SNodeId> stack = {node};
  while (!stack.empty()) {
    const SocialIndexNode& cur = social_index_->node(stack.back());
    stack.pop_back();
    if (cur.is_leaf()) {
      out->insert(out->end(), cur.users.begin(), cur.users.end());
    } else {
      stack.insert(stack.end(), cur.children.begin(), cur.children.end());
    }
  }
}

void PruningAuditor::CollectSubtreePois(RNodeId node,
                                        std::vector<PoiId>* out) const {
  const RStarTree& tree = poi_index_->tree();
  std::vector<RNodeId> stack = {node};
  while (!stack.empty()) {
    const RTreeNode& cur = tree.node(stack.back());
    stack.pop_back();
    for (const RTreeEntry& entry : cur.entries) {
      if (cur.is_leaf()) {
        out->push_back(entry.id);
      } else {
        stack.push_back(entry.id);
      }
    }
  }
}

void PruningAuditor::OnUserPruned(const QueryUserContext& ctx, UserId u,
                                  PruneRule rule) {
  if (!Sample(rule)) return;
  const SocialNetwork& social = social_index_->ssn().social();
  switch (rule) {
    case PruneRule::kUserInterest: {
      // Lemma 3 claims Interest_Score(u_q, u) < γ; recompute it exactly.
      const double score =
          UserSimilarity(ctx.query.metric, ctx.w_q, social.Interests(u));
      if (score >= ctx.query.gamma) {
        std::ostringstream os;
        os << "user " << u << " pruned by interest but exact score " << score
           << " >= gamma " << ctx.query.gamma;
        Report(rule, -1, os.str());
      }
      break;
    }
    case PruneRule::kUserSocialDistance: {
      // Lemma 4 claims dist_SN(u_q, u) >= τ; BFS gives the exact hops.
      EnsureIssuerBfs(ctx);
      const int hops = bfs_.Hops(u);
      if (hops < ctx.query.tau) {
        std::ostringstream os;
        os << "user " << u << " pruned by social distance but is " << hops
           << " hops from the issuer, tau = " << ctx.query.tau;
        Report(rule, -1, os.str());
      }
      break;
    }
    default:
      GPSSN_CHECK(false);
  }
}

void PruningAuditor::OnSocialNodePruned(const QueryUserContext& ctx,
                                        SNodeId node, PruneRule rule) {
  if (!Sample(rule)) return;
  const SocialNetwork& social = social_index_->ssn().social();
  std::vector<UserId> members;
  CollectSubtreeUsers(node, &members);
  switch (rule) {
    case PruneRule::kSocialNodeInterest:
      // Lemma 8: a pruned node may contain NO user with score >= γ.
      ForSampledIndices(
          members.size(), options_.max_members_checked, [&](size_t i) {
            const UserId u = members[i];
            const double score = UserSimilarity(ctx.query.metric, ctx.w_q,
                                                social.Interests(u));
            if (score >= ctx.query.gamma) {
              std::ostringstream os;
              os << "node pruned by interest box but member user " << u
                 << " has exact score " << score << " >= gamma "
                 << ctx.query.gamma;
              Report(rule, node, os.str());
            }
          });
      break;
    case PruneRule::kSocialNodeDistance:
      // Lemma 9: no member may be within τ−1 hops of the issuer.
      EnsureIssuerBfs(ctx);
      ForSampledIndices(
          members.size(), options_.max_members_checked, [&](size_t i) {
            const UserId u = members[i];
            const int hops = bfs_.Hops(u);
            if (hops < ctx.query.tau) {
              std::ostringstream os;
              os << "node pruned by hop bound but member user " << u << " is "
                 << hops << " hops from the issuer, tau = " << ctx.query.tau;
              Report(rule, node, os.str());
            }
          });
      break;
    default:
      GPSSN_CHECK(false);
  }
}

void PruningAuditor::OnPoiMatchPruned(const QueryUserContext& ctx, PoiId poi) {
  if (!Sample(PruneRule::kPoiMatch)) return;
  // Lemma 1: recompute the 2·r_max candidate superset from scratch — the
  // stored sup_K must cover it, and the issuer's match score against it
  // must be below θ for the prune to be sound.
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  const double sup_radius = 2.0 * poi_index_->options().r_max;
  std::vector<PoiId> ball =
      locator_.Ball(ssn.poi(poi).position, sup_radius, &engine_);
  const std::vector<KeywordId> sup = UnionKeywords(ssn, ball);
  const double score = MatchScore(ctx.w_q, sup);
  if (score >= ctx.query.theta) {
    std::ostringstream os;
    os << "poi " << poi << " pruned by match score but the recomputed "
       << "B(o, 2 r_max) keyword union scores " << score << " >= theta "
       << ctx.query.theta;
    Report(PruneRule::kPoiMatch, -1, os.str());
  }
}

void PruningAuditor::OnRoadNodeMatchPruned(const QueryUserContext& ctx,
                                           RNodeId node) {
  if (!Sample(PruneRule::kRoadNodeMatch)) return;
  // Lemma 6: if the node mask scores below θ, then every POI underneath
  // must have an exact sup_K match score below θ.
  std::vector<PoiId> members;
  CollectSubtreePois(node, &members);
  ForSampledIndices(
      members.size(), options_.max_members_checked, [&](size_t i) {
        const PoiId o = members[i];
        const double score =
            MatchScoreOverMask(ctx.w_q, poi_index_->sup_mask(o));
        if (score >= ctx.query.theta) {
          std::ostringstream os;
          os << "node pruned by its mask's match score but member poi " << o
             << " has exact sup_K score " << score << " >= theta "
             << ctx.query.theta;
          Report(PruneRule::kRoadNodeMatch, node, os.str());
        }
      });
}

void PruningAuditor::OnPoiDistanceBound(const QueryUserContext& ctx, PoiId poi,
                                        double lb) {
  if (!Sample(PruneRule::kPoiDistanceBound)) return;
  if (lb <= 0.0) return;
  // Eq. 17 claims dist_RN(u_q, o) >= lb. A Dijkstra bounded by lb either
  // proves the claim (no path within the bound) or produces the violating
  // exact distance.
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  const double exact = engine_.PositionToPosition(
      ssn.user_home(ctx.query.issuer), ssn.poi(poi).position, lb);
  if (exact < lb - DistanceSlack(lb)) {
    std::ostringstream os;
    os << "poi " << poi << " distance lower bound " << lb
       << " exceeds the exact issuer distance " << exact;
    Report(PruneRule::kPoiDistanceBound, -1, os.str());
  }
}

void PruningAuditor::OnPairDistanceBound(const QueryUserContext& /*ctx*/,
                                         UserId user, PoiId center,
                                         double lb) {
  if (!Sample(PruneRule::kPairDistanceBound)) return;
  if (lb <= 0.0) return;
  // Lemma 5 claims dist_RN(user, center) >= lb for the pivot bound used by
  // the refinement skip.
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  const double exact = engine_.PositionToPosition(
      ssn.user_home(user), ssn.poi(center).position, lb);
  if (exact < lb - DistanceSlack(lb)) {
    std::ostringstream os;
    os << "pair (user " << user << ", poi " << center << ") lower bound "
       << lb << " exceeds the exact distance " << exact;
    Report(PruneRule::kPairDistanceBound, -1, os.str());
  }
}

}  // namespace gpssn
