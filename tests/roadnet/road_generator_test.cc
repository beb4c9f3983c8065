// Tests for the synthetic road-network generator.

#include "roadnet/road_generator.h"

#include <gtest/gtest.h>

#include "roadnet/shortest_path.h"

namespace gpssn {
namespace {

bool IsConnected(const RoadNetwork& g) {
  DijkstraEngine engine(&g);
  engine.RunFromVertex(0);
  return static_cast<int>(engine.Settled().size()) == g.num_vertices();
}

class RoadGeneratorTest : public ::testing::TestWithParam<int> {};

TEST_P(RoadGeneratorTest, ConnectedAndNearTargetDegree) {
  RoadGenOptions options;
  options.num_vertices = GetParam();
  options.avg_degree = 2.2;
  options.seed = 42;
  const RoadNetwork g = GenerateRoadNetwork(options);
  EXPECT_EQ(g.num_vertices(), options.num_vertices);
  EXPECT_TRUE(IsConnected(g));
  // Spanning tree forces at least n-1 edges; the densify pass targets
  // avg_degree. Allow slack for the connectivity floor on small graphs.
  EXPECT_GE(g.AverageDegree(), 1.8);
  EXPECT_LE(g.AverageDegree(), 2.7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoadGeneratorTest,
                         ::testing::Values(50, 200, 1000, 5000));

TEST(RoadGeneratorTest, DeterministicForSeed) {
  RoadGenOptions options;
  options.num_vertices = 300;
  options.seed = 7;
  const RoadNetwork a = GenerateRoadNetwork(options);
  const RoadNetwork b = GenerateRoadNetwork(options);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_u(e), b.edge_u(e));
    EXPECT_EQ(a.edge_v(e), b.edge_v(e));
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e));
  }
}

TEST(RoadGeneratorTest, DifferentSeedsDiffer) {
  RoadGenOptions options;
  options.num_vertices = 300;
  options.seed = 1;
  const RoadNetwork a = GenerateRoadNetwork(options);
  options.seed = 2;
  const RoadNetwork b = GenerateRoadNetwork(options);
  bool any_diff = a.num_edges() != b.num_edges();
  for (VertexId v = 0; !any_diff && v < a.num_vertices(); ++v) {
    any_diff = !(a.vertex_point(v) == b.vertex_point(v));
  }
  EXPECT_TRUE(any_diff);
}

TEST(RoadGeneratorTest, VerticesInsideSpace) {
  RoadGenOptions options;
  options.num_vertices = 500;
  options.space_size = 25.0;
  options.seed = 3;
  const RoadNetwork g = GenerateRoadNetwork(options);
  Point lo, hi;
  g.BoundingBox(&lo, &hi);
  EXPECT_GE(lo.x, 0.0);
  EXPECT_GE(lo.y, 0.0);
  EXPECT_LE(hi.x, 25.0);
  EXPECT_LE(hi.y, 25.0);
}

TEST(RoadGeneratorTest, EdgesConnectNearbyVertices) {
  RoadGenOptions options;
  options.num_vertices = 2000;
  options.space_size = 100.0;
  options.seed = 5;
  const RoadNetwork g = GenerateRoadNetwork(options);
  // kNN construction: edges should be short relative to the space.
  double total = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) total += g.edge_weight(e);
  const double avg_len = total / g.num_edges();
  EXPECT_LT(avg_len, 10.0);  // ~2.2 expected spacing; generous bound.
}

TEST(RoadGeneratorTest, HigherTargetDegreeAddsEdges) {
  RoadGenOptions sparse, dense;
  sparse.num_vertices = dense.num_vertices = 800;
  sparse.seed = dense.seed = 11;
  sparse.avg_degree = 2.0;
  dense.avg_degree = 3.0;
  EXPECT_LT(GenerateRoadNetwork(sparse).num_edges(),
            GenerateRoadNetwork(dense).num_edges());
}

}  // namespace
}  // namespace gpssn
