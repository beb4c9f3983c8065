// Tests for the POI index I_R: sup/sub keyword sets, pivot distance
// bounds, node aggregation, and page layout.

#include "index/poi_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/scores.h"
#include "roadnet/distance_backend.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

class PoiIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSsnOptions data;
    data.num_road_vertices = 400;
    data.num_pois = 250;
    data.num_users = 200;
    data.num_topics = 30;
    data.seed = 21;
    ssn_ = std::make_unique<SpatialSocialNetwork>(MakeSynthetic(data));
    pivots_ = std::make_unique<RoadPivotTable>(
        ssn_->road(), RandomRoadPivots(ssn_->road(), 4, 5));
    options_.r_min = 0.5;
    options_.r_max = 3.0;
    index_ = std::make_unique<PoiIndex>(ssn_.get(), pivots_.get(), options_);
  }

  std::unique_ptr<SpatialSocialNetwork> ssn_;
  std::unique_ptr<RoadPivotTable> pivots_;
  PoiIndexOptions options_;
  std::unique_ptr<PoiIndex> index_;
};

TEST_F(PoiIndexTest, SupIsSupersetOfSubAndOwnKeywords) {
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    const PoiAug& aug = index_->poi_aug(id);
    ASSERT_TRUE(std::includes(aug.sup_keywords.begin(), aug.sup_keywords.end(),
                              aug.sub_keywords.begin(), aug.sub_keywords.end()))
        << "sub_K must be a subset of sup_K for poi " << id;
    const auto& own = ssn_->poi(id).keywords;
    ASSERT_TRUE(std::includes(aug.sup_keywords.begin(), aug.sup_keywords.end(),
                              own.begin(), own.end()));
    // The POI is inside its own r_min ball, so sub_K covers its keywords.
    ASSERT_TRUE(std::includes(aug.sub_keywords.begin(), aug.sub_keywords.end(),
                              own.begin(), own.end()));
  }
}

TEST_F(PoiIndexTest, SupCoversAnyBallWithinEnvelope) {
  // Property: keywords of every ball B(o, r) with r <= r_max are contained
  // in sup_K(o) — that is what makes the match-score upper bound sound.
  DijkstraEngine engine(&ssn_->road());
  PoiLocator locator(&ssn_->road(), &ssn_->pois());
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const PoiId center = rng.NextBounded(ssn_->num_pois());
    const double r = rng.UniformDouble(options_.r_min, options_.r_max);
    const auto ball = locator.Ball(ssn_->poi(center).position, r, &engine);
    const auto ball_kws = UnionKeywords(*ssn_, ball);
    const PoiAug& aug = index_->poi_aug(center);
    ASSERT_TRUE(std::includes(aug.sup_keywords.begin(), aug.sup_keywords.end(),
                              ball_kws.begin(), ball_kws.end()))
        << "center " << center << " r " << r;
    // Bit-vector signature also covers everything.
    for (KeywordId kw : ball_kws) ASSERT_TRUE(aug.v_sup.MayContain(kw));
  }
}

TEST_F(PoiIndexTest, SubIsSubsetOfAnyBallKeywords) {
  DijkstraEngine engine(&ssn_->road());
  PoiLocator locator(&ssn_->road(), &ssn_->pois());
  Rng rng(10);
  for (int trial = 0; trial < 40; ++trial) {
    const PoiId center = rng.NextBounded(ssn_->num_pois());
    const double r = rng.UniformDouble(options_.r_min, options_.r_max);
    const auto ball = locator.Ball(ssn_->poi(center).position, r, &engine);
    const auto ball_kws = UnionKeywords(*ssn_, ball);
    const PoiAug& aug = index_->poi_aug(center);
    ASSERT_TRUE(std::includes(ball_kws.begin(), ball_kws.end(),
                              aug.sub_keywords.begin(), aug.sub_keywords.end()));
  }
}

TEST_F(PoiIndexTest, StoredBallsMatchBothEnginesAtEveryRadius) {
  // A query reads B(o, r) as the stored B(o, r_max) entries within r; that
  // filter must equal the engines' own ball searches bit for bit (ids,
  // distances, order), including at a radius equal to a member distance.
  const auto dijkstra_backend =
      MakeDijkstraBackend(&ssn_->road(), &ssn_->pois());
  const auto ch_backend = MakeChBackend(&ssn_->road(), &ssn_->pois());
  const auto dijkstra = dijkstra_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    const auto& ball = index_->poi_aug(id).ball;
    std::vector<double> member_dists;
    for (const auto& [member, d] : ball) member_dists.push_back(d);
    std::sort(member_dists.begin(), member_dists.end());
    ASSERT_FALSE(member_dists.empty()) << "poi " << id;
    const double member_r = member_dists[member_dists.size() / 2];
    for (double r : {options_.r_min, 1.0, 2.0, options_.r_max, member_r}) {
      std::vector<std::pair<PoiId, double>> filtered;
      for (const auto& entry : ball) {
        if (entry.second <= r) filtered.push_back(entry);
      }
      const EdgePosition& center = ssn_->poi(id).position;
      EXPECT_EQ(filtered, dijkstra->BallWithDistances(center, r))
          << "poi " << id << " r " << r;
      EXPECT_EQ(filtered, ch->BallWithDistances(center, r))
          << "poi " << id << " r " << r;
    }
  }
}

TEST_F(PoiIndexTest, PivotDistancesAreExact) {
  DijkstraEngine engine(&ssn_->road());
  for (PoiId id = 0; id < ssn_->num_pois(); id += 13) {
    const PoiAug& aug = index_->poi_aug(id);
    for (int k = 0; k < pivots_->num_pivots(); ++k) {
      EXPECT_NEAR(aug.pivot_dist[k],
                  pivots_->PositionToPivot(ssn_->poi(id).position, k), 1e-9);
    }
  }
}

TEST_F(PoiIndexTest, NodeBoundsContainMemberDistances) {
  // Eqs. 7-8: node per-pivot bounds must sandwich every member POI.
  const RStarTree& tree = index_->tree();
  std::vector<RNodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const RNodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& node = tree.node(id);
    const PoiNodeAug& aug = index_->node_aug(id);
    if (node.is_leaf()) {
      for (const RTreeEntry& e : node.entries) {
        const PoiAug& poi = index_->poi_aug(e.id);
        for (int k = 0; k < pivots_->num_pivots(); ++k) {
          ASSERT_LE(aug.lb_pivot[k], poi.pivot_dist[k] + 1e-9);
          ASSERT_GE(aug.ub_pivot[k], poi.pivot_dist[k] - 1e-9);
        }
        for (KeywordId kw : poi.sup_keywords) {
          ASSERT_TRUE(aug.v_sup.MayContain(kw));
        }
      }
    } else {
      for (const RTreeEntry& e : node.entries) {
        const PoiNodeAug& child = index_->node_aug(e.id);
        for (int k = 0; k < pivots_->num_pivots(); ++k) {
          ASSERT_LE(aug.lb_pivot[k], child.lb_pivot[k] + 1e-9);
          ASSERT_GE(aug.ub_pivot[k], child.ub_pivot[k] - 1e-9);
        }
        stack.push_back(e.id);
      }
    }
  }
}

TEST_F(PoiIndexTest, SubtreeCountsSumToAllPois) {
  EXPECT_EQ(index_->node_aug(index_->tree().root()).subtree_pois,
            ssn_->num_pois());
}

TEST_F(PoiIndexTest, SamplesAreValidPois) {
  for (RNodeId id = 0; id < index_->tree().num_nodes(); ++id) {
    const PoiNodeAug& aug = index_->node_aug(id);
    EXPECT_LE(static_cast<int>(aug.sub_samples.size()),
              options_.sub_samples_per_node);
    for (PoiId s : aug.sub_samples) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, ssn_->num_pois());
    }
  }
}

TEST_F(PoiIndexTest, PagesAssigned) {
  for (RNodeId id = 0; id < index_->tree().num_nodes(); ++id) {
    EXPECT_NE(index_->node_aug(id).page, kInvalidPage);
  }
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    EXPECT_NE(index_->poi_page(id), kInvalidPage);
  }
}

}  // namespace
}  // namespace gpssn
