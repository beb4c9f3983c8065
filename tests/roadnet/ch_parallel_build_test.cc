// Determinism tests for the morselized parallel CH construction: the
// hierarchy built with a TaskScheduler must be BITWISE IDENTICAL to the
// serial build at every worker count — same ranks, same shortcut count,
// same upward CSR arrays bit for bit. This test also runs under TSAN
// (scripts/check.sh) to verify the build's only cross-lane communication
// is the morsel cursor.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/task_scheduler.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/road_generator.h"

namespace gpssn {
namespace {

void ExpectBitIdentical(const ContractionHierarchy& a,
                        const ContractionHierarchy& b) {
  ASSERT_EQ(a.num_shortcuts(), b.num_shortcuts());
  ASSERT_EQ(a.build_rounds(), b.build_rounds());
  ASSERT_EQ(a.ranks().size(), b.ranks().size());
  for (size_t i = 0; i < a.ranks().size(); ++i) {
    ASSERT_EQ(a.ranks()[i], b.ranks()[i]) << "rank of vertex " << i;
  }
  ASSERT_EQ(a.up_offsets().size(), b.up_offsets().size());
  for (size_t i = 0; i < a.up_offsets().size(); ++i) {
    ASSERT_EQ(a.up_offsets()[i], b.up_offsets()[i]) << "offset " << i;
  }
  ASSERT_EQ(a.up_arcs().size(), b.up_arcs().size());
  for (size_t i = 0; i < a.up_arcs().size(); ++i) {
    ASSERT_EQ(a.up_arcs()[i].to, b.up_arcs()[i].to) << "arc " << i;
    ASSERT_EQ(a.up_arcs()[i].middle, b.up_arcs()[i].middle) << "arc " << i;
    ASSERT_EQ(a.up_arcs()[i].weight, b.up_arcs()[i].weight) << "arc " << i;
  }
}

TEST(ChParallelBuildTest, BitwiseIdenticalAtEveryWorkerCount) {
  for (const uint64_t seed : {1u, 8u, 23u}) {
    RoadGenOptions gen;
    gen.num_vertices = 400;
    gen.seed = seed;
    const RoadNetwork g = GenerateRoadNetwork(gen);

    ContractionHierarchy serial;
    serial.Build(&g);
    ASSERT_TRUE(serial.built());

    for (const int workers : {1, 2, 4}) {
      TaskScheduler scheduler(workers);
      ChOptions options;
      options.scheduler = &scheduler;
      ContractionHierarchy parallel(options);
      parallel.Build(&g);
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(ChParallelBuildTest, LaneCapClampsWithoutChangingTheResult) {
  RoadGenOptions gen;
  gen.num_vertices = 250;
  gen.seed = 99;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  ContractionHierarchy serial;
  serial.Build(&g);
  TaskScheduler scheduler(4);
  for (const int cap : {1, 2, 3}) {
    ChOptions options;
    options.scheduler = &scheduler;
    options.build_max_lanes = cap;
    ContractionHierarchy capped(options);
    capped.Build(&g);
    ExpectBitIdentical(serial, capped);
  }
}

// Distances (the observable behaviour) agree across worker counts too —
// belt and braces over the array-level identity.
TEST(ChParallelBuildTest, IdenticalDistancesAtEveryWorkerCount) {
  RoadGenOptions gen;
  gen.num_vertices = 350;
  gen.seed = 5;
  const RoadNetwork g = GenerateRoadNetwork(gen);

  ContractionHierarchy serial;
  serial.Build(&g);
  ChQuery serial_query(&serial);

  TaskScheduler scheduler(3);
  ChOptions options;
  options.scheduler = &scheduler;
  ContractionHierarchy parallel(options);
  parallel.Build(&g);
  ChQuery parallel_query(&parallel);

  Rng rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    ASSERT_EQ(serial_query.VertexToVertex(s, t),
              parallel_query.VertexToVertex(s, t));
  }
}

}  // namespace
}  // namespace gpssn
