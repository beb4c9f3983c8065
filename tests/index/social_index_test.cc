// Tests for the social index I_S: partition-tree structure, interest and
// social-pivot bounds (Eqs. 9-12), and page layout.

#include "index/social_index.h"

#include <gtest/gtest.h>

#include "ssn/dataset.h"

namespace gpssn {
namespace {

class SocialIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSsnOptions data;
    data.num_road_vertices = 300;
    data.num_pois = 150;
    data.num_users = 800;
    data.num_topics = 25;
    data.seed = 31;
    ssn_ = std::make_unique<SpatialSocialNetwork>(MakeSynthetic(data));
    road_pivots_ = std::make_unique<RoadPivotTable>(
        ssn_->road(), RandomRoadPivots(ssn_->road(), 3, 1));
    social_pivots_ = std::make_unique<SocialPivotTable>(
        ssn_->social(), RandomSocialPivots(ssn_->social(), 3, 2));
    options_.leaf_cell_size = 32;
    options_.fanout = 4;
    index_ = std::make_unique<SocialIndex>(ssn_.get(), social_pivots_.get(),
                                           road_pivots_.get(), options_);
  }

  std::unique_ptr<SpatialSocialNetwork> ssn_;
  std::unique_ptr<RoadPivotTable> road_pivots_;
  std::unique_ptr<SocialPivotTable> social_pivots_;
  SocialIndexOptions options_;
  std::unique_ptr<SocialIndex> index_;
};

TEST_F(SocialIndexTest, EveryUserInExactlyOneLeaf) {
  std::vector<int> seen(ssn_->num_users(), 0);
  for (SNodeId id = 0; id < index_->num_nodes(); ++id) {
    const SocialIndexNode& node = index_->node(id);
    if (!node.is_leaf()) continue;
    for (UserId u : node.users) ++seen[u];
  }
  for (UserId u = 0; u < ssn_->num_users(); ++u) {
    ASSERT_EQ(seen[u], 1) << "user " << u;
  }
}

TEST_F(SocialIndexTest, UniformLeafDepthAndReachability) {
  // Every leaf must sit at level 0 and be reachable from the root; every
  // internal node's children are exactly one level below.
  std::vector<bool> reached(index_->num_nodes(), false);
  std::vector<SNodeId> stack = {index_->root()};
  reached[index_->root()] = true;
  int leaves = 0;
  while (!stack.empty()) {
    const SNodeId id = stack.back();
    stack.pop_back();
    const SocialIndexNode& node = index_->node(id);
    if (node.is_leaf()) {
      ++leaves;
      EXPECT_TRUE(node.children.empty());
      continue;
    }
    EXPECT_FALSE(node.children.empty());
    for (SNodeId child : node.children) {
      EXPECT_EQ(index_->node(child).level, node.level - 1);
      EXPECT_FALSE(reached[child]) << "node reached twice";
      reached[child] = true;
      stack.push_back(child);
    }
  }
  EXPECT_GT(leaves, 1);
  for (SNodeId id = 0; id < index_->num_nodes(); ++id) {
    EXPECT_TRUE(reached[id]) << "orphan node " << id;
  }
}

TEST_F(SocialIndexTest, InterestBoundsContainMembers) {
  std::vector<SNodeId> stack = {index_->root()};
  while (!stack.empty()) {
    const SNodeId id = stack.back();
    stack.pop_back();
    const SocialIndexNode& node = index_->node(id);
    if (node.is_leaf()) {
      for (UserId u : node.users) {
        const auto w = ssn_->social().Interests(u);
        for (int f = 0; f < ssn_->num_topics(); ++f) {
          ASSERT_LE(node.lb_w[f], w[f] + 1e-12);
          ASSERT_GE(node.ub_w[f], w[f] - 1e-12);
        }
      }
    } else {
      for (SNodeId child : node.children) {
        const SocialIndexNode& c = index_->node(child);
        for (int f = 0; f < ssn_->num_topics(); ++f) {
          ASSERT_LE(node.lb_w[f], c.lb_w[f] + 1e-12);
          ASSERT_GE(node.ub_w[f], c.ub_w[f] - 1e-12);
        }
        stack.push_back(child);
      }
    }
  }
}

TEST_F(SocialIndexTest, PivotBoundsContainMembers) {
  std::vector<SNodeId> stack = {index_->root()};
  while (!stack.empty()) {
    const SNodeId id = stack.back();
    stack.pop_back();
    const SocialIndexNode& node = index_->node(id);
    if (node.is_leaf()) {
      for (UserId u : node.users) {
        for (int k = 0; k < social_pivots_->num_pivots(); ++k) {
          const int hops = social_pivots_->UserToPivot(u, k);
          ASSERT_LE(node.lb_sp[k], hops);
          ASSERT_GE(node.ub_sp[k], hops);
        }
      }
    } else {
      stack.insert(stack.end(), node.children.begin(), node.children.end());
    }
  }
}

TEST_F(SocialIndexTest, UserRoadPivotDistancesAreExact) {
  for (UserId u = 0; u < ssn_->num_users(); u += 37) {
    const std::span<const double> rp = index_->user_road_pivot_dists(u);
    ASSERT_EQ(rp.size(), static_cast<size_t>(road_pivots_->num_pivots()));
    for (int k = 0; k < road_pivots_->num_pivots(); ++k) {
      EXPECT_NEAR(rp[k], road_pivots_->PositionToPivot(ssn_->user_home(u), k),
                  1e-9);
    }
  }
}

TEST_F(SocialIndexTest, SubtreeCountsSumToAllUsers) {
  EXPECT_EQ(index_->node(index_->root()).subtree_users, ssn_->num_users());
}

TEST_F(SocialIndexTest, FanoutRespected) {
  for (SNodeId id = 0; id < index_->num_nodes(); ++id) {
    EXPECT_LE(static_cast<int>(index_->node(id).children.size()),
              options_.fanout);
  }
}

TEST_F(SocialIndexTest, PagesAssigned) {
  for (SNodeId id = 0; id < index_->num_nodes(); ++id) {
    EXPECT_NE(index_->node(id).page, kInvalidPage);
  }
  for (UserId u = 0; u < ssn_->num_users(); ++u) {
    EXPECT_NE(index_->user_page(u), kInvalidPage);
  }
}

}  // namespace
}  // namespace gpssn
