// Tests for the POI index I_R: sup keyword sets, stored balls, pivot
// distances, node masks and counts, and page layout.

#include "index/poi_index.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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

// A ball's entries sorted by id: a ball as a set with its distance bits.
std::vector<std::pair<PoiId, double>> ById(
    std::vector<std::pair<PoiId, double>> ball) {
  std::sort(ball.begin(), ball.end());
  return ball;
}

TEST_F(PoiIndexTest, BallPrefixesMatchBothEnginesAtEveryRadius) {
  // A query reads B(o, r) as the prefix of the stored B(o, r_max) within
  // r, and its keyword union as that prefix's last running mask. At every
  // radius, each member's own distance included (an exact tie), the prefix
  // must equal the engines' own ball searches as a set with its distance
  // bits, and its mask the union of its members' keywords.
  const auto dijkstra_backend =
      MakeDijkstraBackend(&ssn_->road(), &ssn_->pois());
  const auto ch_backend = MakeChBackend(&ssn_->road(), &ssn_->pois());
  const auto dijkstra = dijkstra_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();
  const size_t words = KeywordMaskWords(ssn_->num_topics());
  for (PoiId id = 0; id < ssn_->num_pois(); ++id) {
    const std::span<const PoiId> ids = index_->ball_ids(id);
    const std::span<const double> dists = index_->ball_dists(id);
    ASSERT_EQ(ids.size(), dists.size()) << "poi " << id;
    ASSERT_FALSE(ids.empty()) << "poi " << id;
    for (size_t i = 1; i < ids.size(); ++i) {
      ASSERT_LT(std::tie(dists[i - 1], ids[i - 1]), std::tie(dists[i], ids[i]))
          << "poi " << id << " entry " << i;
    }
    std::vector<double> radii = {options_.r_min, 1.0, 2.0, options_.r_max};
    radii.insert(radii.end(), dists.begin(), dists.end());
    for (double r : radii) {
      const size_t k = index_->BallPrefix(id, r);
      ASSERT_GT(k, 0u) << "poi " << id << " r " << r;
      std::vector<std::pair<PoiId, double>> prefix;
      std::vector<uint64_t> mask(words, 0);
      for (size_t i = 0; i < k; ++i) {
        prefix.emplace_back(ids[i], dists[i]);
        AddToKeywordMask(ssn_->poi(ids[i]).keywords, ssn_->num_topics(),
                         mask.data());
      }
      // The prefix stops at the last entry within r, never inside a tie.
      EXPECT_TRUE(k == ids.size() || dists[k] > r)
          << "poi " << id << " r " << r;
      const EdgePosition& center = ssn_->poi(id).position;
      EXPECT_EQ(ById(prefix), ById(dijkstra->BallWithDistances(center, r)))
          << "poi " << id << " r " << r;
      EXPECT_EQ(ById(prefix), ById(ch->BallWithDistances(center, r)))
          << "poi " << id << " r " << r;
      EXPECT_TRUE(std::ranges::equal(index_->ball_mask(id, k), mask))
          << "poi " << id << " r " << r;
    }
  }
}

TEST_F(PoiIndexTest, PivotDistancesAreExact) {
  for (PoiId id = 0; id < ssn_->num_pois(); id += 13) {
    const std::span<const double> row = index_->pivot_dists(id);
    ASSERT_EQ(static_cast<int>(row.size()), pivots_->num_pivots());
    for (int k = 0; k < pivots_->num_pivots(); ++k) {
      EXPECT_NEAR(row[k], pivots_->PositionToPivot(ssn_->poi(id).position, k),
                  1e-9);
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
