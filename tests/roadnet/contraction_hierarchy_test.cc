// Equivalence tests for the contraction-hierarchy distance oracle: every
// distance the CH backend's engine returns must match plain Dijkstra, on
// random and generated graphs.

#include "roadnet/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "roadnet/distance_backend.h"
#include "roadnet/road_generator.h"

namespace gpssn {
namespace {

RoadNetwork RandomWeightedGraph(int n, double p, uint64_t seed) {
  Rng rng(seed);
  RoadNetworkBuilder b;
  for (int i = 0; i < n; ++i) {
    b.AddVertex({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)});
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.UniformDouble() < p) {
        EXPECT_TRUE(b.AddEdge(i, j, rng.UniformDouble(0.1, 3.0)).ok());
      }
    }
  }
  return b.Build();
}

// `count` random positions; `at_vertices` puts each on an edge's end
// (t = 0 or 1), so the engine starts and stops exactly at a vertex.
std::vector<EdgePosition> RandomPositions(const RoadNetwork& g, int count,
                                          bool at_vertices, Rng* rng) {
  std::vector<EdgePosition> out(count);
  for (EdgePosition& p : out) {
    p.edge = static_cast<EdgeId>(rng->NextBounded(g.num_edges()));
    p.t = at_vertices ? static_cast<double>(rng->NextBounded(2))
                      : rng->UniformDouble();
  }
  return out;
}

// Runs every source against every target through one engine of
// MakeChBackend and compares with DijkstraEngine::PositionToPosition:
// finite distances to 1e-9 (shortcut weights add in another order),
// unreachable ones as kInfDistance.
void ExpectChMatchesDijkstra(const RoadNetwork& g,
                             const std::vector<EdgePosition>& sources,
                             const std::vector<EdgePosition>& targets) {
  const std::vector<Poi> no_pois;
  const auto backend = MakeChBackend(&g, &no_pois);
  const auto engine = backend->CreateEngine();
  engine->SetTargets(targets);
  DijkstraEngine dijkstra(&g);
  std::vector<double> got(targets.size());
  for (const EdgePosition& s : sources) {
    engine->SourceToTargets(s, kInfDistance, got.data());
    for (size_t j = 0; j < targets.size(); ++j) {
      const double want = dijkstra.PositionToPosition(s, targets[j]);
      if (std::isfinite(want)) {
        ASSERT_NEAR(got[j], want, 1e-9)
            << "edge " << s.edge << " t " << s.t << " -> target " << j;
      } else {
        ASSERT_EQ(got[j], kInfDistance)
            << "edge " << s.edge << " t " << s.t << " -> target " << j;
      }
    }
  }
}

class ChPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChPropertyTest, MatchesDijkstraOnRandomGraphs) {
  const RoadNetwork g = RandomWeightedGraph(80, 0.06, GetParam());
  Rng rng(GetParam() + 1);
  const auto sources = RandomPositions(g, 15, /*at_vertices=*/true, &rng);
  const auto targets = RandomPositions(g, 10, /*at_vertices=*/true, &rng);
  ExpectChMatchesDijkstra(g, sources, targets);
}

TEST_P(ChPropertyTest, MatchesDijkstraOnRoadLikeGraphs) {
  RoadGenOptions gen;
  gen.num_vertices = 700;
  gen.seed = GetParam();
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() + 5);
  const auto sources = RandomPositions(g, 10, /*at_vertices=*/true, &rng);
  const auto targets = RandomPositions(g, 8, /*at_vertices=*/true, &rng);
  ExpectChMatchesDijkstra(g, sources, targets);
}

TEST_P(ChPropertyTest, PositionQueriesMatch) {
  RoadGenOptions gen;
  gen.num_vertices = 300;
  gen.seed = GetParam() ^ 0x33;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() + 9);
  std::vector<EdgePosition> sources =
      RandomPositions(g, 10, /*at_vertices=*/false, &rng);
  const auto targets = RandomPositions(g, 5, /*at_vertices=*/false, &rng);
  // A source on a target's edge takes the same-edge shortcut.
  sources.push_back({targets[0].edge, rng.UniformDouble()});
  ExpectChMatchesDijkstra(g, sources, targets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChPropertyTest, ::testing::Values(1, 7, 21));

TEST(ChTest, RanksAreAPermutation) {
  RoadGenOptions gen;
  gen.num_vertices = 200;
  gen.seed = 3;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  ContractionHierarchy ch;
  ch.Build(&g);
  std::vector<bool> seen(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int r = ch.rank(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, g.num_vertices());
    ASSERT_FALSE(seen[r]);
    seen[r] = true;
    ASSERT_EQ(ch.vertex_at_rank(r), v);  // The inverse the CH engine reads.
  }
}

TEST(ChTest, UpwardArcsPointUp) {
  RoadGenOptions gen;
  gen.num_vertices = 200;
  gen.seed = 4;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  ContractionHierarchy ch;
  ch.Build(&g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto& arc : ch.up(v)) {
      EXPECT_GT(ch.rank(arc.to), ch.rank(v));
    }
  }
}

TEST(ChTest, DisconnectedComponents) {
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({static_cast<double>(i), 0});
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 1.0).ok());
  const RoadNetwork g = b.Build();
  const std::vector<Poi> no_pois;
  const auto backend = MakeChBackend(&g, &no_pois);
  const auto engine = backend->CreateEngine();
  // Vertex 1 (end of edge 0), vertex 2 (start of edge 1), vertex 0.
  const std::vector<EdgePosition> targets = {{0, 1.0}, {1, 0.0}, {0, 0.0}};
  engine->SetTargets(targets);
  double out[3];
  engine->SourceToTargets({0, 0.0}, kInfDistance, out);
  EXPECT_NEAR(out[0], 1.0, 1e-12);
  EXPECT_EQ(out[1], kInfDistance);
  EXPECT_EQ(out[2], 0.0);
}

}  // namespace
}  // namespace gpssn
