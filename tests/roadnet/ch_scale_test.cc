// Large-scale CH validation: a continental-style jittered grid (hundreds
// of thousands of vertices by default, 10^6+ via env), CH construction and
// an index-file round trip — what the small tests cover, at a scale where
// the CH search spaces and the file format's 64-bit offsets actually
// matter.
//
// Excluded from the tier-1 suite: the whole file GTEST_SKIPs unless
// GPSSN_LARGE_TESTS=1 (set by `scripts/check.sh --large-only`, which runs
// `ctest -L large`). Grid side is tunable via GPSSN_LARGE_TESTS_SIDE
// (default 400 -> 160k vertices; 1000 -> 10^6).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/index_io.h"

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

TEST(ChScaleTest, IndexFileRoundTripAtScale) {
  if (!LargeTestsEnabled()) {
    GTEST_SKIP() << "set GPSSN_LARGE_TESTS=1 (scripts/check.sh --large-only)";
  }
  const int side = std::min(GridSide(), 400);  // Keep the file small-ish.
  const RoadNetwork g = JitteredGrid(side, 7);
  ContractionHierarchy ch(ChOptions{});
  ch.Build(&g);
  const std::string path = ::testing::TempDir() + "/ch_scale.gpssnidx";
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  auto loaded = LoadRoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ChQuery a(&ch);
  ChQuery b(loaded.value().ch.get());
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    ASSERT_EQ(a.VertexToVertex(s, t), b.VertexToVertex(s, t));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gpssn
