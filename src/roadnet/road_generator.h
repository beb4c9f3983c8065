// Copyright 2026 The gpssn Authors.
//
// Synthetic spatial road-network generator (Section 6.1): random
// intersection points in a 2D data space, with road segments connecting
// spatially close vertices. The construction connects nearest neighbors
// (crossing-free in the overwhelming majority of cases, approximating the
// paper's planar requirement), guarantees a connected network, and hits a
// target average degree.

#ifndef GPSSN_ROADNET_ROAD_GENERATOR_H_
#define GPSSN_ROADNET_ROAD_GENERATOR_H_

#include "common/rng.h"
#include "roadnet/road_graph.h"

namespace gpssn {

struct RoadGenOptions {
  int num_vertices = 10000;
  /// Target average vertex degree; real road networks sit near 2-3
  /// (Table 2: California 2.1, Colorado 2.4).
  double avg_degree = 2.2;
  /// Side length of the square data space.
  double space_size = 100.0;
  uint64_t seed = 1;
};

/// Generates a connected, spatially embedded road network.
RoadNetwork GenerateRoadNetwork(const RoadGenOptions& options);

struct GridRoadOptions {
  int rows = 50;
  int cols = 50;
  /// Distance between adjacent intersections.
  double spacing = 1.0;
  /// Fraction of grid edges randomly removed (closed streets); the network
  /// is kept connected regardless.
  double knockout_fraction = 0.1;
  uint64_t seed = 1;
};

/// Generates a Manhattan-style grid city: rows x cols intersections with
/// axis-aligned streets, minus a random knockout of street segments. A
/// harsher test for spatial indexes than the organic generator (strong
/// directional structure, many equal-length shortest paths).
RoadNetwork GenerateGridRoadNetwork(const GridRoadOptions& options);

}  // namespace gpssn

#endif  // GPSSN_ROADNET_ROAD_GENERATOR_H_
