// Continental-scale distance-engine benchmark (PR 9): on a jittered
// synthetic grid it measures
//
//   1. CH construction;
//   2. index persistence — SaveRoadIndex once, then loading the file back
//      (LoadRoadIndex) vs rebuilding the hierarchy from scratch. The
//      rebuild must be bitwise identical to the first build (the build is
//      deterministic) and to the loaded index.
//
// Environment:
//   GPSSN_BENCH_PR9_SIDE   grid side (default 1000 -> 10^6 vertices;
//                          scripts/bench_smoke.sh passes a smoke size)
//   GPSSN_BENCH_PR9_JSON   write a machine-readable report here
//   GPSSN_BENCH_PR9_INDEX  index file path (default: a file in the cwd,
//                          removed on exit)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/macros.h"
#include "common/rng.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/index_io.h"
#include "roadnet/road_graph.h"

namespace gpssn::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

// Unit-spacing grid with jittered vertices and Euclidean weights.
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

bool BitIdentical(const ContractionHierarchy& a,
                  const ContractionHierarchy& b) {
  if (a.num_shortcuts() != b.num_shortcuts()) return false;
  if (a.ranks().size() != b.ranks().size()) return false;
  for (size_t i = 0; i < a.ranks().size(); ++i) {
    if (a.ranks()[i] != b.ranks()[i]) return false;
  }
  if (a.up_arcs().size() != b.up_arcs().size()) return false;
  for (size_t i = 0; i < a.up_arcs().size(); ++i) {
    if (a.up_arcs()[i].to != b.up_arcs()[i].to ||
        a.up_arcs()[i].middle != b.up_arcs()[i].middle ||
        a.up_arcs()[i].weight != b.up_arcs()[i].weight) {
      return false;
    }
  }
  return true;
}

void Run() {
  const int side = EnvInt("GPSSN_BENCH_PR9_SIDE", 1000);
  std::printf("=== PR 9: continental-scale distance engine "
              "(grid %dx%d = %d vertices) ===\n",
              side, side, side * side);

  const RoadNetwork g = JitteredGrid(side, 1);

  ChOptions options;
  // Default witness limits: weakening them (e.g. 5/24) looks cheaper per
  // search but misses witnesses, and the surviving shortcuts densify the
  // remaining graph — measured 3x slower AND 3x more shortcuts on a
  // 90k-vertex grid. Strong witnesses are the scale knob.

  // --- 1. CH construction ---------------------------------------------
  double t0 = Now();
  ContractionHierarchy serial(options);
  serial.Build(&g);
  const double build_serial_s = Now() - t0;
  std::printf("CH build:             %7.2f s  (%lld shortcuts, %d rounds)\n",
              build_serial_s, static_cast<long long>(serial.num_shortcuts()),
              serial.build_rounds());

  // --- 2. Persistence: save once, load vs rebuild ---------------------
  const char* index_env = std::getenv("GPSSN_BENCH_PR9_INDEX");
  const std::string path =
      index_env != nullptr ? index_env : "bench_pr9.gpssnidx";
  t0 = Now();
  const Status saved = SaveRoadIndex(g, serial, path);
  const double save_s = Now() - t0;
  GPSSN_CHECK(saved.ok());
  t0 = Now();
  auto loaded = LoadRoadIndex(path);
  const double load_s = Now() - t0;
  GPSSN_CHECK(loaded.ok());
  GPSSN_CHECK(BitIdentical(serial, *loaded.value().ch));
  // The alternative to loading is building again: time one more build.
  t0 = Now();
  ContractionHierarchy rebuilt(options);
  rebuilt.Build(&g);
  const double rebuild_s = Now() - t0;
  const bool build_identical = BitIdentical(serial, rebuilt);
  std::printf("persistence:          save %.3f s, load %.3f s, "
              "rebuild %.2f s (load %.0fx faster; rebuild identical: %s)\n",
              save_s, load_s, rebuild_s,
              load_s > 0.0 ? rebuild_s / load_s : 0.0,
              build_identical ? "yes" : "NO");
  std::remove(path.c_str());

  if (const char* out = std::getenv("GPSSN_BENCH_PR9_JSON")) {
    std::FILE* f = std::fopen(out, "w");
    GPSSN_CHECK(f != nullptr);
    std::fprintf(f,
                 "{\n"
                 "  \"grid_side\": %d,\n"
                 "  \"num_vertices\": %d,\n"
                 "  \"build_serial_seconds\": %.6f,\n"
                 "  \"build_identical\": %s,\n"
                 "  \"save_seconds\": %.6f,\n"
                 "  \"load_seconds\": %.6f,\n"
                 "  \"rebuild_seconds\": %.6f\n"
                 "}\n",
                 side, side * side, build_serial_s,
                 build_identical ? "true" : "false",
                 save_s, load_s, rebuild_s);
    std::fclose(f);
    std::printf("wrote %s\n", out);
  }
  GPSSN_CHECK(build_identical);
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
