// Tests for the POI index I_R: sup keyword sets, stored balls, pivot
// distances, node masks and counts, and page layout.

#include "index/poi_index.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/scores.h"
#include "core/snapshot.h"
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
    ASSERT_TRUE(MaskCovers(index_->sup_mask(center), ball_kws))
        << "center " << center << " r " << r;
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

// Every node mask of `index` equals the OR of its entries' masks: the
// sup_K masks of a leaf's POIs, the node masks of an internal node's
// children. Lemma 6 reads it, so no bit may be missing or extra.
void ExpectNodeMasksAreExact(const PoiIndex& index) {
  const RStarTree& tree = index.tree();
  for (RNodeId id = 0; id < tree.num_nodes(); ++id) {
    const RTreeNode& node = tree.node(id);
    std::vector<uint64_t> expected(index.node_mask(id).size(), 0);
    for (const RTreeEntry& e : node.entries) {
      const std::span<const uint64_t> entry =
          node.is_leaf() ? index.sup_mask(e.id) : index.node_mask(e.id);
      ASSERT_EQ(entry.size(), expected.size());
      for (size_t w = 0; w < expected.size(); ++w) expected[w] |= entry[w];
    }
    ASSERT_TRUE(std::ranges::equal(index.node_mask(id), expected))
        << "node " << id;
  }
}

TEST_F(PoiIndexTest, NodeMasksAreTheOrOfTheirEntries) {
  ASSERT_EQ(index_->node_mask(index_->tree().root()).size(),
            KeywordMaskWords(ssn_->num_topics()));
  ExpectNodeMasksAreExact(*index_);
}

TEST_F(PoiIndexTest, NodeMasksAreExactAfterSnapshotRoundTrip) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 300;
  data.num_pois = 150;
  data.num_users = 120;
  data.num_topics = 70;  // Two mask words.
  data.seed = 23;
  const GpssnDatabase original(MakeSynthetic(data));
  const std::string path =
      std::string(::testing::TempDir()) + "/poi_index_masks.snapshot";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const PoiIndex& index = (*restored)->poi_index();
  ExpectNodeMasksAreExact(index);
  ASSERT_EQ(index.tree().num_nodes(), original.poi_index().tree().num_nodes());
  for (RNodeId id = 0; id < index.tree().num_nodes(); ++id) {
    EXPECT_TRUE(std::ranges::equal(index.node_mask(id),
                                   original.poi_index().node_mask(id)))
        << "node " << id;
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
