// Tests for the POI index I_R: sup keyword sets, stored balls, pivot
// distances, node aggregation, and page layout.

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

// True when every keyword of `keywords` is set in the sup_K mask.
bool MaskCovers(std::span<const uint64_t> mask,
                const std::vector<KeywordId>& keywords) {
  return std::all_of(keywords.begin(), keywords.end(), [&](KeywordId kw) {
    return (mask[kw / 64] >> (kw % 64)) & 1;
  });
}

TEST_F(PoiIndexTest, SupCoversOwnKeywords) {
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    const std::span<const uint64_t> mask = index_->sup_mask(id);
    ASSERT_EQ(mask.size(), KeywordMaskWords(ssn_->num_topics()));
    ASSERT_TRUE(MaskCovers(mask, ssn_->poi(id).keywords))
        << "poi " << id;
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
    ASSERT_TRUE(MaskCovers(index_->sup_mask(center), ball_kws))
        << "center " << center << " r " << r;
    // Bit-vector signature also covers everything.
    for (KeywordId kw : ball_kws) ASSERT_TRUE(aug.v_sup.MayContain(kw));
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

TEST_F(PoiIndexTest, NodeSignaturesCoverMemberKeywords) {
  // Lemma 6: a node's signature covers the sup_K of every POI under it.
  const RStarTree& tree = index_->tree();
  std::vector<RNodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const RNodeId id = stack.back();
    stack.pop_back();
    const RTreeNode& node = tree.node(id);
    const PoiNodeAug& aug = index_->node_aug(id);
    if (node.is_leaf()) {
      for (const RTreeEntry& e : node.entries) {
        ForEachSetBit(index_->sup_mask(e.id), [&](size_t kw) {
          EXPECT_TRUE(aug.v_sup.MayContain(static_cast<int>(kw)));
        });
      }
    } else {
      for (const RTreeEntry& e : node.entries) {
        const KeywordBitVector& child = index_->node_aug(e.id).v_sup;
        for (int kw = 0; kw < ssn_->num_topics(); ++kw) {
          if (child.MayContain(kw)) {
            ASSERT_TRUE(aug.v_sup.MayContain(kw)) << "node " << id;
          }
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
