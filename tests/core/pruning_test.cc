// Soundness property tests for every pruning rule: a pruned candidate must
// genuinely violate the corresponding predicate of Definition 5.

#include "core/pruning.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/scores.h"
#include "geom/pruning_region.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSsnOptions data;
    data.num_road_vertices = 400;
    data.num_pois = 250;
    data.num_users = 600;
    data.num_topics = 30;
    data.seed = 61;
    ssn_ = std::make_unique<SpatialSocialNetwork>(MakeSynthetic(data));
    road_pivots_ = std::make_unique<RoadPivotTable>(
        ssn_->road(), RandomRoadPivots(ssn_->road(), 4, 1));
    social_pivots_ = std::make_unique<SocialPivotTable>(
        ssn_->social(), RandomSocialPivots(ssn_->social(), 4, 2));
    SocialIndexOptions social_options;
    social_options.leaf_cell_size = 32;
    social_index_ = std::make_unique<SocialIndex>(
        ssn_.get(), social_pivots_.get(), road_pivots_.get(), social_options);
    PoiIndexOptions poi_options;
    poi_options.r_min = 0.5;
    poi_options.r_max = 3.0;
    poi_index_ = std::make_unique<PoiIndex>(ssn_.get(), road_pivots_.get(),
                                            poi_options);
  }

  GpssnQuery MakeQuery(UserId issuer) {
    GpssnQuery q;
    q.issuer = issuer;
    q.tau = 4;
    q.gamma = 0.3;
    q.theta = 0.3;
    q.radius = 2.0;
    return q;
  }

  std::unique_ptr<SpatialSocialNetwork> ssn_;
  std::unique_ptr<RoadPivotTable> road_pivots_;
  std::unique_ptr<SocialPivotTable> social_pivots_;
  std::unique_ptr<SocialIndex> social_index_;
  std::unique_ptr<PoiIndex> poi_index_;
};

TEST_F(PruningTest, UserInterestPruningMatchesDefinition) {
  const GpssnQuery q = MakeQuery(10);
  const QueryUserContext ctx(q, *social_index_);
  for (UserId u = 0; u < ssn_->num_users(); ++u) {
    const auto w = ssn_->social().Interests(u);
    const bool pruned = PruneUserInterest(ctx, ssn_->social().Run(u));
    const bool fails = InterestScore(ctx.w_q, w) < q.gamma;
    ASSERT_EQ(pruned, fails) << "user " << u;
  }
}

TEST_F(PruningTest, UserSocialDistancePruningIsSound) {
  const GpssnQuery q = MakeQuery(25);
  const QueryUserContext ctx(q, *social_index_);
  BfsEngine bfs(&ssn_->social());
  bfs.Run(q.issuer);
  for (UserId u = 0; u < ssn_->num_users(); ++u) {
    if (PruneUserSocialDistance(ctx, *social_pivots_, u)) {
      // True hops must indeed be >= tau (lower bound soundness).
      ASSERT_GE(bfs.Hops(u), q.tau) << "user " << u;
    }
  }
}

TEST_F(PruningTest, SocialNodeInterestPruningIsSound) {
  const GpssnQuery q = MakeQuery(42);
  const QueryUserContext ctx(q, *social_index_);
  // If a node is pruned, every user beneath it must individually fail γ.
  std::vector<SNodeId> stack = {social_index_->root()};
  while (!stack.empty()) {
    const SNodeId id = stack.back();
    stack.pop_back();
    const SocialIndexNode& node = social_index_->node(id);
    if (PruneSocialNodeInterest(ctx, node)) {
      std::vector<SNodeId> inner = {id};
      while (!inner.empty()) {
        const SocialIndexNode& n = social_index_->node(inner.back());
        inner.pop_back();
        if (n.is_leaf()) {
          for (UserId u : n.users) {
            ASSERT_TRUE(PruneUserInterest(ctx, ssn_->social().Run(u)));
          }
        } else {
          inner.insert(inner.end(), n.children.begin(), n.children.end());
        }
      }
    } else if (!node.is_leaf()) {
      stack.insert(stack.end(), node.children.begin(), node.children.end());
    }
  }
}

// Under the dot product, Lemma 8 scores a node's `ub` corner over u_q's run;
// PruningRegion::PrunesBox takes the dense Dot over all d topics. A topic
// the run skips adds a zero term, so both forms decide alike, γ ties
// included, with +0.0 and -0.0 in the issuer's row and in the box.
TEST_F(PruningTest, SocialNodeInterestOverRunEqualsRegionBoxTest) {
  QueryUserContext ctx(MakeQuery(7), *social_index_);
  Rng rng(17);
  SocialIndexNode node;
  for (int d : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100}) {
    for (int trial = 0; trial < 300; ++trial) {
      // Weights: zeros of both signs, and nonzeros at a per-row density.
      const double density = 0.25 * static_cast<double>(trial % 5);
      auto draw = [&]() {
        if (rng.UniformDouble() >= density) {
          return rng.NextBounded(2) == 0 ? 0.0 : -0.0;
        }
        return rng.UniformDouble(0.01, 1.0);
      };
      ctx.w_q.assign(d, 0.0);
      ctx.q_topics.clear();
      ctx.q_weights.clear();
      for (int f = 0; f < d; ++f) {
        ctx.w_q[f] = draw();
        if (ctx.w_q[f] != 0.0) {
          ctx.q_topics.push_back(f);
          ctx.q_weights.push_back(ctx.w_q[f]);
        }
      }
      node.lb_w.assign(d, 0.0);
      node.ub_w.resize(d);
      for (int f = 0; f < d; ++f) {
        node.ub_w[f] = draw();
        if (node.ub_w[f] != 0.0) {
          node.lb_w[f] = node.ub_w[f] * rng.UniformDouble();
        }
      }
      const double dense = Dot(node.ub_w, ctx.w_q);
      ASSERT_EQ(std::bit_cast<uint64_t>(InterestScore(node.ub_w, ctx.q_run())),
                std::bit_cast<uint64_t>(dense))
          << "d=" << d << " trial=" << trial;
      const double inf = std::numeric_limits<double>::infinity();
      for (double gamma : {dense, std::nextafter(dense, -inf),
                           std::nextafter(dense, inf), rng.UniformDouble()}) {
        ctx.query.gamma = gamma;
        ASSERT_EQ(PruneSocialNodeInterest(ctx, node),
                  PruningRegion(ctx.w_q, gamma).PrunesBox(node.lb_w,
                                                          node.ub_w))
            << "d=" << d << " trial=" << trial << " gamma=" << gamma;
      }
    }
  }
}

TEST_F(PruningTest, SocialNodeDistanceLowerBoundIsSound) {
  const GpssnQuery q = MakeQuery(33);
  const QueryUserContext ctx(q, *social_index_);
  BfsEngine bfs(&ssn_->social());
  bfs.Run(q.issuer);
  for (SNodeId id = 0; id < social_index_->num_nodes(); ++id) {
    const SocialIndexNode& node = social_index_->node(id);
    if (!node.is_leaf()) continue;
    const int lb = LbHopsToSocialNode(ctx, node);
    for (UserId u : node.users) {
      const int hops = bfs.Hops(u);
      if (hops != kUnreachableHops) {
        ASSERT_LE(lb, hops) << "node " << id << " user " << u;
      }
    }
  }
}

TEST_F(PruningTest, PoiMatchPruningIsSoundForAnyRadius) {
  const GpssnQuery q = MakeQuery(7);
  const QueryUserContext ctx(q, *social_index_);
  DijkstraEngine engine(&ssn_->road());
  PoiLocator locator(&ssn_->road(), &ssn_->pois());
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const PoiId center = rng.NextBounded(ssn_->num_pois());
    if (!PrunePoiMatch(ctx, poi_index_->sup_mask(center))) continue;
    // Pruned center: the true match score of u_q against ANY ball within
    // the envelope must be below θ.
    const double r = rng.UniformDouble(0.5, 3.0);
    const auto ball = locator.Ball(ssn_->poi(center).position, r, &engine);
    const auto kws = UnionKeywords(*ssn_, ball);
    ASSERT_LT(MatchScore(ctx.w_q, kws), q.theta);
  }
}

TEST_F(PruningTest, RoadNodeMatchPruningImpliesPoiPruning) {
  // Lemma 6: a node whose mask scores below θ holds no POI that Lemma 1
  // keeps, at every level of I_R.
  const RStarTree& tree = poi_index_->tree();
  int pruned_nodes = 0;
  for (UserId issuer = 0; issuer < 40; ++issuer) {
    GpssnQuery q = MakeQuery(issuer);
    q.theta = 0.6;
    const QueryUserContext ctx(q, *social_index_);
    for (RNodeId id = 0; id < tree.num_nodes(); ++id) {
      if (!PrunePoiMatch(ctx, poi_index_->node_mask(id))) continue;
      ++pruned_nodes;
      std::vector<RNodeId> stack = {id};
      while (!stack.empty()) {
        const RTreeNode& node = tree.node(stack.back());
        stack.pop_back();
        for (const RTreeEntry& e : node.entries) {
          if (!node.is_leaf()) {
            stack.push_back(e.id);
            continue;
          }
          ASSERT_TRUE(PrunePoiMatch(ctx, poi_index_->sup_mask(e.id)))
              << "issuer " << issuer << ": node " << id << " pruned, poi "
              << e.id << " kept";
        }
      }
    }
  }
  EXPECT_GT(pruned_nodes, 0);
}

TEST_F(PruningTest, IssuerPoiLowerBoundIsSound) {
  const GpssnQuery q = MakeQuery(11);
  const QueryUserContext ctx(q, *social_index_);
  DijkstraEngine engine(&ssn_->road());
  for (PoiId o = 0; o < ssn_->num_pois(); o += 7) {
    const double truth = engine.PositionToPosition(
        ssn_->user_home(q.issuer), ssn_->poi(o).position);
    const double lb =
        LbRoadPivotDist(ctx.rp_dist, poi_index_->pivot_dists(o));
    if (std::isfinite(truth)) {
      ASSERT_LE(lb, truth + 1e-9) << "poi " << o;
    }
  }
}

TEST_F(PruningTest, UserPoiPairLowerBoundIsSound) {
  DijkstraEngine engine(&ssn_->road());
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const UserId u = rng.NextBounded(ssn_->num_users());
    const PoiId o = rng.NextBounded(ssn_->num_pois());
    const double truth =
        engine.PositionToPosition(ssn_->user_home(u), ssn_->poi(o).position);
    if (!std::isfinite(truth)) continue;
    ASSERT_LE(LbRoadPivotDist(social_index_->user_road_pivot_dists(u),
                              poi_index_->pivot_dists(o)),
              truth + 1e-9);
  }
}

}  // namespace
}  // namespace gpssn
