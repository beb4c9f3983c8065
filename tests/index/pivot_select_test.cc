// Tests for Algorithm 1 (pivot selection): selected pivots must be valid
// and the cost-model local search should beat random pivots on lower-bound
// tightness (statistically).

#include "index/pivot_select.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "roadnet/road_generator.h"
#include "roadnet/road_pivots.h"
#include "socialnet/social_generator.h"
#include "socialnet/social_pivots.h"

namespace gpssn {
namespace {

TEST(PivotSelectTest, RoadPivotsValidAndDistinct) {
  RoadGenOptions gen;
  gen.num_vertices = 800;
  gen.seed = 51;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  PivotSelectOptions options;
  options.seed = 1;
  const auto pivots = SelectRoadPivots(g, 5, options);
  ASSERT_EQ(pivots.size(), 5u);
  std::set<VertexId> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), 5u);
  for (VertexId p : pivots) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, g.num_vertices());
  }
}

TEST(PivotSelectTest, SocialPivotsValidAndDistinct) {
  SocialGenOptions gen;
  gen.num_users = 900;
  gen.seed = 52;
  const SocialNetwork g = GenerateSocialNetwork(gen);
  PivotSelectOptions options;
  options.seed = 2;
  const auto pivots = SelectSocialPivots(g, 4, options);
  ASSERT_EQ(pivots.size(), 4u);
  std::set<UserId> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), 4u);
}

// The pivots Algorithm 1 selects on the two graphs above, pinned: they
// depend on every distance it gathers, to the last bit, and on the order
// of its random draws.
TEST(PivotSelectTest, SelectionIsPinned) {
  RoadGenOptions road_gen;
  road_gen.num_vertices = 800;
  road_gen.seed = 51;
  const RoadNetwork road = GenerateRoadNetwork(road_gen);
  SocialGenOptions social_gen;
  social_gen.num_users = 900;
  social_gen.seed = 52;
  const SocialNetwork social = GenerateSocialNetwork(social_gen);

  PivotSelectOptions options;
  options.seed = 1;
  EXPECT_EQ(SelectRoadPivots(road, 5, options),
            (std::vector<VertexId>{342, 397, 15, 683, 67}));
  options.seed = 2;
  EXPECT_EQ(SelectSocialPivots(social, 4, options),
            (std::vector<UserId>{314, 737, 843, 240}));
}

TEST(PivotSelectTest, OptimizedBeatsRandomOnRoadTightness) {
  RoadGenOptions gen;
  gen.num_vertices = 1200;
  gen.seed = 53;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  PivotSelectOptions options;
  options.seed = 3;
  const auto selected = SelectRoadPivots(g, 4, options);
  // Average over several random pivot draws to avoid flaky comparisons.
  double random_tightness = 0;
  for (uint64_t s = 0; s < 5; ++s) {
    random_tightness += MeasureRoadPivotTightness(
        g, RandomRoadPivots(g, 4, 100 + s), 60, 17);
  }
  random_tightness /= 5;
  const double selected_tightness =
      MeasureRoadPivotTightness(g, selected, 60, 17);
  EXPECT_GE(selected_tightness, random_tightness * 0.95)
      << "Algorithm 1 should not be clearly worse than random";
  EXPECT_GT(selected_tightness, 0.2);
}

TEST(PivotSelectTest, OptimizedBeatsRandomOnSocialTightness) {
  SocialGenOptions gen;
  gen.num_users = 1500;
  gen.seed = 54;
  const SocialNetwork g = GenerateSocialNetwork(gen);
  PivotSelectOptions options;
  options.seed = 4;
  const auto selected = SelectSocialPivots(g, 4, options);
  double random_tightness = 0;
  for (uint64_t s = 0; s < 5; ++s) {
    random_tightness += MeasureSocialPivotTightness(
        g, RandomSocialPivots(g, 4, 200 + s), 60, 19);
  }
  random_tightness /= 5;
  const double selected_tightness =
      MeasureSocialPivotTightness(g, selected, 60, 19);
  EXPECT_GE(selected_tightness, random_tightness * 0.9);
}

TEST(PivotSelectTest, SingleVertexGraphEdgeCase) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({1, 0});
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  const RoadNetwork g = b.Build();
  PivotSelectOptions options;
  const auto pivots = SelectRoadPivots(g, 1, options);
  EXPECT_EQ(pivots.size(), 1u);
}

TEST(PivotSelectTest, DeterministicForSeed) {
  RoadGenOptions gen;
  gen.num_vertices = 500;
  gen.seed = 55;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  PivotSelectOptions options;
  options.seed = 5;
  EXPECT_EQ(SelectRoadPivots(g, 3, options), SelectRoadPivots(g, 3, options));
}

}  // namespace
}  // namespace gpssn
