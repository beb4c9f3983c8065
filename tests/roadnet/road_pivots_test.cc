// Property tests for road-pivot distance tables: the triangle-inequality
// lower bound must never exceed the true network distance.

#include "roadnet/road_pivots.h"

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "roadnet/road_generator.h"

namespace gpssn {
namespace {

class RoadPivotTest : public ::testing::TestWithParam<int> {};

TEST_P(RoadPivotTest, LowerBoundNeverExceedsTrueDistance) {
  const int h = GetParam();
  RoadGenOptions options;
  options.num_vertices = 500;
  options.seed = 31;
  const RoadNetwork g = GenerateRoadNetwork(options);
  const RoadPivotTable table(g, RandomRoadPivots(g, h, 77));
  ASSERT_EQ(table.num_pivots(), h);

  DijkstraEngine engine(&g);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const EdgePosition a{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                         rng.UniformDouble()};
    const EdgePosition b{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                         rng.UniformDouble()};
    const double truth = engine.PositionToPosition(a, b);
    const auto da = table.PositionDistances(a);
    const auto db = table.PositionDistances(b);
    ASSERT_LE(table.LowerBound(da, db), truth + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PivotCounts, RoadPivotTest,
                         ::testing::Values(1, 2, 5, 10));

TEST(RoadPivotTest, VertexToPivotIsExactDijkstra) {
  RoadGenOptions options;
  options.num_vertices = 300;
  options.seed = 33;
  const RoadNetwork g = GenerateRoadNetwork(options);
  const std::vector<VertexId> pivots = {5, 50};
  const RoadPivotTable table(g, pivots);
  DijkstraEngine engine(&g);
  for (size_t k = 0; k < pivots.size(); ++k) {
    engine.RunFromVertex(pivots[k]);
    for (VertexId v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_NEAR(table.VertexToPivot(v, static_cast<int>(k)),
                  engine.Distance(v), 1e-9);
    }
  }
}

TEST(RoadPivotTest, PivotToItselfIsZero) {
  RoadGenOptions options;
  options.num_vertices = 100;
  options.seed = 35;
  const RoadNetwork g = GenerateRoadNetwork(options);
  const RoadPivotTable table(g, {7});
  EXPECT_EQ(table.VertexToPivot(7, 0), 0.0);
}

TEST(RoadPivotTest, MorePivotsNeverLoosenTheLowerBound) {
  RoadGenOptions options;
  options.num_vertices = 400;
  options.seed = 37;
  const RoadNetwork g = GenerateRoadNetwork(options);
  const auto all = RandomRoadPivots(g, 8, 55);
  const RoadPivotTable small(
      g, std::vector<VertexId>(all.begin(), all.begin() + 2));
  const RoadPivotTable big(g, all);
  Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const EdgePosition a{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                         rng.UniformDouble()};
    const EdgePosition b{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                         rng.UniformDouble()};
    EXPECT_GE(big.LowerBound(big.PositionDistances(a), big.PositionDistances(b)) + 1e-9,
              small.LowerBound(small.PositionDistances(a), small.PositionDistances(b)));
  }
}

TEST(RoadPivotTest, RandomPivotsAreDistinctAndValid) {
  RoadGenOptions options;
  options.num_vertices = 50;
  options.seed = 39;
  const RoadNetwork g = GenerateRoadNetwork(options);
  const auto pivots = RandomRoadPivots(g, 10, 3);
  std::set<VertexId> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), 10u);
  for (VertexId p : pivots) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, g.num_vertices());
  }
}

}  // namespace
}  // namespace gpssn
