// Property tests for the Dijkstra engine and POI ball queries against
// brute-force references (Floyd–Warshall on random small graphs).

#include "roadnet/shortest_path.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "roadnet/road_graph.h"

namespace gpssn {
namespace {

struct TestGraph {
  RoadNetwork g;
  std::vector<std::vector<double>> apsp;  // Vertex all-pairs distances.
};

TestGraph RandomGraph(int n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  RoadNetworkBuilder b;
  for (int i = 0; i < n; ++i) {
    b.AddVertex({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)});
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.UniformDouble() < edge_prob) {
        EXPECT_TRUE(b.AddEdge(i, j, rng.UniformDouble(0.1, 5.0)).ok());
      }
    }
  }
  TestGraph out{b.Build(), {}};
  // Floyd–Warshall.
  auto& d = out.apsp;
  d.assign(n, std::vector<double>(n, kInfDistance));
  for (int i = 0; i < n; ++i) d[i][i] = 0;
  for (EdgeId e = 0; e < out.g.num_edges(); ++e) {
    const int u = out.g.edge_u(e), v = out.g.edge_v(e);
    d[u][v] = std::min(d[u][v], out.g.edge_weight(e));
    d[v][u] = d[u][v];
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return out;
}

class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, SingleSourceMatchesFloydWarshall) {
  const TestGraph t = RandomGraph(25, 0.15, GetParam());
  DijkstraEngine engine(&t.g);
  for (VertexId s = 0; s < t.g.num_vertices(); ++s) {
    engine.RunFromVertex(s);
    for (VertexId v = 0; v < t.g.num_vertices(); ++v) {
      if (std::isfinite(t.apsp[s][v])) {
        ASSERT_NEAR(engine.Distance(v), t.apsp[s][v], 1e-9);
      } else {
        ASSERT_EQ(engine.Distance(v), kInfDistance);
      }
    }
  }
}

TEST_P(DijkstraPropertyTest, BoundedRunSettlesExactlyWithinBound) {
  const TestGraph t = RandomGraph(25, 0.15, GetParam() ^ 0xbeef);
  DijkstraEngine engine(&t.g);
  const double bound = 4.0;
  for (VertexId s = 0; s < t.g.num_vertices(); s += 3) {
    engine.RunFromVertex(s, bound);
    for (VertexId v = 0; v < t.g.num_vertices(); ++v) {
      const double truth = t.apsp[s][v];
      if (truth <= bound) {
        ASSERT_NEAR(engine.Distance(v), truth, 1e-9);
      } else {
        ASSERT_EQ(engine.Distance(v), kInfDistance);
      }
    }
  }
}

TEST_P(DijkstraPropertyTest, VertexToVertexWithEarlyExit) {
  const TestGraph t = RandomGraph(20, 0.2, GetParam() ^ 0xf00d);
  DijkstraEngine engine(&t.g);
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId a = rng.NextBounded(t.g.num_vertices());
    const VertexId b = rng.NextBounded(t.g.num_vertices());
    const double got = engine.VertexToVertex(a, b);
    if (std::isfinite(t.apsp[a][b])) {
      ASSERT_NEAR(got, t.apsp[a][b], 1e-9);
    } else {
      ASSERT_EQ(got, kInfDistance);
    }
  }
}

TEST_P(DijkstraPropertyTest, PositionToPositionSymmetricAndConsistent) {
  const TestGraph t = RandomGraph(20, 0.25, GetParam() ^ 0xcafe);
  if (t.g.num_edges() < 2) GTEST_SKIP();
  DijkstraEngine engine(&t.g);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 60; ++trial) {
    const EdgePosition a{static_cast<EdgeId>(rng.NextBounded(t.g.num_edges())),
                         rng.UniformDouble()};
    const EdgePosition b{static_cast<EdgeId>(rng.NextBounded(t.g.num_edges())),
                         rng.UniformDouble()};
    const double ab = engine.PositionToPosition(a, b);
    const double ba = engine.PositionToPosition(b, a);
    if (std::isfinite(ab)) {
      ASSERT_NEAR(ab, ba, 1e-9);
    } else {
      ASSERT_EQ(ba, kInfDistance);
    }
    // Reference: min over endpoint combinations plus the same-edge path.
    double want = SameEdgeDistance(t.g, a, b);
    for (VertexId ea : {t.g.edge_u(a.edge), t.g.edge_v(a.edge)}) {
      for (VertexId eb : {t.g.edge_u(b.edge), t.g.edge_v(b.edge)}) {
        want = std::min(want, t.g.OffsetTo(a, ea) + t.apsp[ea][eb] +
                                  t.g.OffsetTo(b, eb));
      }
    }
    if (std::isfinite(want)) {
      ASSERT_NEAR(ab, want, 1e-9);
    } else {
      ASSERT_EQ(ab, kInfDistance);
    }
  }
}

// A search that stops early (RunWithTargets, VertexToVertex) must return
// the very bits of the full search's label: Algorithm 1 compares costs
// summed from these labels, so a last-bit change can move its pivots. A
// tolerance against Floyd–Warshall cannot see that, so this compares bit
// patterns.
TEST_P(DijkstraPropertyTest, EarlyExitKeepsTheFullSearchBits) {
  const TestGraph t = RandomGraph(60, 0.05, GetParam() ^ 0xb175);
  const int n = t.g.num_vertices();
  DijkstraEngine full(&t.g);
  DijkstraEngine early(&t.g);
  Rng rng(GetParam() + 11);
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  int unreachable = 0;
  for (VertexId s = 0; s < n; ++s) {
    full.RunFromVertex(s);
    std::vector<VertexId> targets = {s};  // The source is a target too.
    for (int i = 0; i < 6; ++i) {
      targets.push_back(static_cast<VertexId>(rng.NextBounded(n)));
    }
    targets.push_back(targets.back());
    early.RunWithTargets({{s, 0.0}}, kInfDistance, targets);
    for (VertexId v : targets) {
      ASSERT_EQ(bits(early.Distance(v)), bits(full.Distance(v)))
          << s << "->" << v;
    }
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(bits(early.VertexToVertex(s, v)), bits(full.Distance(v)))
          << s << "->" << v;
      unreachable += !std::isfinite(full.Distance(v));
    }
  }
  EXPECT_GT(unreachable, 0) << "the graph should have several components";
}

// Dijkstra's labels from the O(n^2) textbook loop, which settles, among
// equal keys, the vertex with the largest id first.
struct ReferenceSearch {
  std::vector<double> label;  // kInfDistance when not settled.
  size_t settled = 0;
  int ties = 0;  // Settles that had another vertex at the same key.
};

ReferenceSearch ReferenceDijkstra(
    const RoadNetwork& g, const std::vector<std::pair<VertexId, double>>& seeds,
    double bound) {
  const int n = g.num_vertices();
  std::vector<double> tentative(n, kInfDistance);
  std::vector<bool> done(n, false);
  for (const auto& [v, d] : seeds) {
    if (d <= bound) tentative[v] = std::min(tentative[v], d);
  }
  ReferenceSearch out{std::vector<double>(n, kInfDistance)};
  while (true) {
    VertexId best = kInvalidVertex;
    bool tie = false;
    for (VertexId v = n - 1; v >= 0; --v) {
      if (done[v] || tentative[v] == kInfDistance) continue;
      if (best == kInvalidVertex || tentative[v] < tentative[best]) {
        best = v;
        tie = false;
      } else if (tentative[v] == tentative[best]) {
        tie = true;
      }
    }
    if (best == kInvalidVertex) break;
    done[best] = true;
    out.label[best] = tentative[best];
    ++out.settled;
    out.ties += tie;
    for (const RoadArc& arc : g.Neighbors(best)) {
      const double nd = tentative[best] + arc.weight;
      if (nd <= bound && !done[arc.to]) {
        tentative[arc.to] = std::min(tentative[arc.to], nd);
      }
    }
  }
  return out;
}

// The engine may settle equal keys in any order: a label is the least
// label(u) + w over the neighbours u settled before it, and a neighbour
// settled later has a label no smaller, so adding w >= 0 cannot lower it.
// Integer weights make equal keys common and fractional seeds make the sums
// round, so this compares every label bit for bit with a reference that
// breaks ties the other way: unbounded and bounded, from one seed and from
// two, and, for a search that stops at its targets, the targets' labels.
TEST_P(DijkstraPropertyTest, TieOrderKeepsEveryLabelBit) {
  Rng rng(GetParam() ^ 0x71e5);
  constexpr int kVertices = 100;
  RoadNetworkBuilder b;
  for (int i = 0; i < kVertices; ++i) {
    b.AddVertex({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)});
  }
  for (int i = 0; i < kVertices; ++i) {
    for (int j = i + 1; j < kVertices; ++j) {
      if (rng.UniformDouble() < 0.05) {
        ASSERT_TRUE(
            b.AddEdge(i, j, static_cast<double>(rng.NextBounded(5))).ok());
      }
    }
  }
  const RoadNetwork g = b.Build();
  DijkstraEngine engine(&g);
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  int ties = 0;
  for (VertexId s = 0; s < kVertices; ++s) {
    const auto t = static_cast<VertexId>(rng.NextBounded(kVertices));
    const std::vector<std::pair<VertexId, double>> seed_sets[] = {
        {{s, 0.0}}, {{s, 0.1}, {t, 0.7}}};
    for (const auto& seeds : seed_sets) {
      for (double bound : {kInfDistance, 5.3}) {
        const ReferenceSearch want = ReferenceDijkstra(g, seeds, bound);
        ties += want.ties;
        engine.Run(seeds, bound);
        ASSERT_EQ(engine.Settled().size(), want.settled) << s;
        for (VertexId v = 0; v < kVertices; ++v) {
          ASSERT_EQ(bits(engine.Distance(v)), bits(want.label[v]))
              << s << "->" << v << " bound " << bound;
        }
        std::vector<VertexId> targets;
        for (int i = 0; i < 4; ++i) {
          targets.push_back(static_cast<VertexId>(rng.NextBounded(kVertices)));
        }
        engine.RunWithTargets(seeds, bound, targets);
        for (VertexId v : targets) {
          ASSERT_EQ(bits(engine.Distance(v)), bits(want.label[v]))
              << s << "->" << v << " bound " << bound << " (targets)";
        }
      }
    }
  }
  EXPECT_GT(ties, 1000) << "integer weights should make equal keys common";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 11));

TEST(DijkstraTest, SameEdgeShortcutBeatsDetour) {
  // Two vertices joined by a single very long edge: positions on it must
  // use the direct along-edge distance.
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  ASSERT_TRUE(b.AddEdge(0, 1, 100.0).ok());
  const RoadNetwork g = b.Build();
  DijkstraEngine engine(&g);
  const double d =
      engine.PositionToPosition(EdgePosition{0, 0.4}, EdgePosition{0, 0.6});
  EXPECT_NEAR(d, 20.0, 1e-12);
}

TEST(DijkstraTest, MultiSeedRun) {
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({static_cast<double>(i), 0});
  ASSERT_TRUE(b.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 1).ok());
  const RoadNetwork g = b.Build();
  DijkstraEngine engine(&g);
  engine.Run({{0, 0.0}, {3, 0.5}});
  EXPECT_NEAR(engine.Distance(2), 1.5, 1e-12);  // Via the seeded vertex 3.
  EXPECT_NEAR(engine.Distance(1), 1.0, 1e-12);
}

TEST(DijkstraTest, RunWithTargetsTerminatesEarlyWithDuplicateTargets) {
  // Regression: duplicate entries in `targets` used to inflate the
  // remaining-target count past what settling could clear, so the early
  // termination never fired and the search exhausted the bound.
  const TestGraph t = RandomGraph(40, 0.15, 77);
  if (t.g.num_vertices() < 5) GTEST_SKIP();
  DijkstraEngine with_dups(&t.g);
  DijkstraEngine reference(&t.g);
  const VertexId target = 3;
  reference.RunWithTargets({{0, 0.0}}, kInfDistance, {target});
  with_dups.RunWithTargets({{0, 0.0}}, kInfDistance,
                           {target, target, target, target});
  EXPECT_EQ(with_dups.Distance(target), reference.Distance(target));
  // Early termination must stop both searches at the same frontier.
  EXPECT_EQ(with_dups.Settled().size(), reference.Settled().size());
}

TEST(DijkstraTest, RunWithTargetsDistancesStayExact) {
  const TestGraph t = RandomGraph(30, 0.2, 81);
  Rng rng(9);
  DijkstraEngine engine(&t.g);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId s =
        static_cast<VertexId>(rng.NextBounded(t.g.num_vertices()));
    std::vector<VertexId> targets;
    for (int i = 0; i < 5; ++i) {
      targets.push_back(
          static_cast<VertexId>(rng.NextBounded(t.g.num_vertices())));
    }
    targets.push_back(targets.front());  // Deliberate duplicate.
    engine.RunWithTargets({{s, 0.0}}, kInfDistance, targets);
    // Every target must be settled at its true distance (unless
    // unreachable); the early cut may only stop AFTER the last target.
    for (VertexId v : targets) {
      const double want = t.apsp[s][v];
      if (std::isfinite(want)) {
        ASSERT_NEAR(engine.Distance(v), want, 1e-9) << s << "->" << v;
      } else {
        ASSERT_EQ(engine.Distance(v), kInfDistance);
      }
    }
  }
}

TEST(PoiLocatorTest, BallMatchesBruteForce) {
  const TestGraph t = RandomGraph(30, 0.15, 99);
  if (t.g.num_edges() < 3) GTEST_SKIP();
  Rng rng(5);
  std::vector<Poi> pois;
  for (int i = 0; i < 40; ++i) {
    Poi poi;
    poi.id = i;
    poi.position = EdgePosition{
        static_cast<EdgeId>(rng.NextBounded(t.g.num_edges())),
        rng.UniformDouble()};
    poi.location = t.g.PositionPoint(poi.position);
    pois.push_back(poi);
  }
  PoiLocator locator(&t.g, &pois);
  DijkstraEngine engine(&t.g);
  DijkstraEngine reference_engine(&t.g);
  for (int trial = 0; trial < 30; ++trial) {
    const EdgePosition center{
        static_cast<EdgeId>(rng.NextBounded(t.g.num_edges())),
        rng.UniformDouble()};
    const double radius = rng.UniformDouble(0.2, 6.0);
    auto got = locator.Ball(center, radius, &engine);
    std::sort(got.begin(), got.end());
    std::vector<PoiId> want;
    for (const Poi& poi : pois) {
      const double d =
          reference_engine.PositionToPosition(center, poi.position);
      if (d <= radius) want.push_back(poi.id);
    }
    ASSERT_EQ(got, want) << "radius " << radius;
  }
}

TEST(PoiLocatorTest, BallDistancesAreExact) {
  const TestGraph t = RandomGraph(25, 0.2, 123);
  if (t.g.num_edges() < 3) GTEST_SKIP();
  Rng rng(6);
  std::vector<Poi> pois;
  for (int i = 0; i < 25; ++i) {
    Poi poi;
    poi.id = i;
    poi.position = EdgePosition{
        static_cast<EdgeId>(rng.NextBounded(t.g.num_edges())),
        rng.UniformDouble()};
    poi.location = t.g.PositionPoint(poi.position);
    pois.push_back(poi);
  }
  PoiLocator locator(&t.g, &pois);
  DijkstraEngine engine(&t.g);
  DijkstraEngine reference_engine(&t.g);
  const EdgePosition center{0, 0.3};
  for (const auto& [id, dist] : locator.BallWithDistances(center, 5.0, &engine)) {
    const double want =
        reference_engine.PositionToPosition(center, pois[id].position);
    ASSERT_NEAR(dist, want, 1e-9);
  }
}

}  // namespace
}  // namespace gpssn
