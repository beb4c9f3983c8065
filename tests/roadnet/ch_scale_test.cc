// Large-scale CH validation: a continental-style jittered grid (hundreds
// of thousands of vertices by default, 10^6+ via env), CH construction and
// the sweep engine the queries run, checked against the reference
// Dijkstra engine — what the small tests cover, at a scale where the CH
// search spaces actually matter.
//
// Excluded from the tier-1 suite: the whole file GTEST_SKIPs unless
// GPSSN_LARGE_TESTS=1 (set by `scripts/check.sh --large-only`, which runs
// `ctest -L large`). Grid side is tunable via GPSSN_LARGE_TESTS_SIDE
// (default 400 -> 160k vertices; 1000 -> 10^6).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "roadnet/distance_backend.h"

namespace gpssn {
namespace {

bool LargeTestsEnabled() {
  const char* env = std::getenv("GPSSN_LARGE_TESTS");
  return env != nullptr && std::string(env) == "1";
}

int GridSide() {
  const char* env = std::getenv("GPSSN_LARGE_TESTS_SIDE");
  return env != nullptr ? std::atoi(env) : 400;
}

// Jittered grid: unit spacing with +-0.2 vertex jitter, Euclidean edge
// weights.
RoadNetwork JitteredGrid(int side, uint64_t seed) {
  Rng rng(seed);
  RoadNetworkBuilder b;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      b.AddVertex(Point{x + 0.4 * (rng.UniformDouble() - 0.5),
                        y + 0.4 * (rng.UniformDouble() - 0.5)});
    }
  }
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const VertexId v = y * side + x;
      if (x + 1 < side) GPSSN_CHECK(b.AddEdge(v, v + 1).ok());
      if (y + 1 < side) GPSSN_CHECK(b.AddEdge(v, v + side).ok());
    }
  }
  return b.Build();
}

EdgePosition RandomPosition(const RoadNetwork& g, Rng* rng) {
  return EdgePosition{static_cast<EdgeId>(rng->NextBounded(g.num_edges())),
                      rng->UniformDouble()};
}

TEST(ChScaleTest, EngineMatchesDijkstraAtScale) {
  if (!LargeTestsEnabled()) {
    GTEST_SKIP() << "set GPSSN_LARGE_TESTS=1 (scripts/check.sh --large-only)";
  }
  const RoadNetwork g = JitteredGrid(GridSide(), 7);
  const std::vector<Poi> no_pois;
  // Engines point into their backends, so both backends outlive them.
  const auto dijkstra_backend = MakeDijkstraBackend(&g, &no_pois);
  const auto ch_backend = MakeChBackend(&g, &no_pois);
  const auto dijkstra = dijkstra_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();

  Rng rng(9);
  std::vector<EdgePosition> targets(64);
  for (EdgePosition& t : targets) t = RandomPosition(g, &rng);
  dijkstra->SetTargets(targets);
  ch->SetTargets(targets);
  std::vector<double> want(targets.size()), got(targets.size());
  for (int source = 0; source < 8; ++source) {
    SCOPED_TRACE("source " + std::to_string(source));
    const EdgePosition from = RandomPosition(g, &rng);
    dijkstra->SourceToTargets(from, kInfDistance, want.data());
    ch->SourceToTargets(from, kInfDistance, got.data());
    for (size_t j = 0; j < targets.size(); ++j) {
      // The grid is connected, so every distance is finite; CH shortcut
      // weights sum in another order, so the last bits may differ.
      ASSERT_TRUE(std::isfinite(want[j])) << "target " << j;
      ASSERT_NEAR(got[j], want[j], 1e-9 * std::max(1.0, want[j]))
          << "target " << j;
    }
  }
}

}  // namespace
}  // namespace gpssn
