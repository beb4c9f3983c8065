// Copyright 2026 The gpssn Authors.
//
// Exact road-network shortest-path distances dist_RN (Definition 5) via
// Dijkstra's algorithm. The engine owns reusable arenas (distance labels with
// generation stamps and a binary heap) so repeated queries do no per-query
// allocation, and supports:
//   * full single-source distance arrays (pivot table construction),
//   * bounded searches (ball queries B(o, r) of Section 3.1 / Fig. 2),
//   * multi-seed starts (positions on edge interiors seed both endpoints),
//   * early-terminating point-to-point queries.

#ifndef GPSSN_ROADNET_SHORTEST_PATH_H_
#define GPSSN_ROADNET_SHORTEST_PATH_H_

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "roadnet/poi.h"
#include "roadnet/road_graph.h"
#include "roadnet/types.h"

namespace gpssn {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Reusable Dijkstra arena bound to one road network. Not thread-safe;
/// create one engine per thread.
class DijkstraEngine {
 public:
  explicit DijkstraEngine(const RoadNetwork* graph);

  /// Runs Dijkstra from `seeds` (vertex, initial distance) pairs until the
  /// queue empties or all settled labels exceed `bound`. After the call,
  /// Distance(v) returns the label of v (kInfDistance when unreached or
  /// beyond the bound). Results stay valid until the next Run/.*From call.
  void Run(const std::vector<std::pair<VertexId, double>>& seeds,
           double bound = kInfDistance);

  /// As Run, but additionally stops as soon as every vertex in `targets`
  /// has been settled (exact labels for the targets).
  void RunWithTargets(const std::vector<std::pair<VertexId, double>>& seeds,
                      double bound, const std::vector<VertexId>& targets);

  /// Convenience: single-source from a vertex.
  void RunFromVertex(VertexId source, double bound = kInfDistance);

  /// Convenience: from a position on an edge interior (seeds both
  /// endpoints with the respective offsets).
  void RunFromPosition(const EdgePosition& pos, double bound = kInfDistance);

  /// Settled distance label of `v` from the last run.
  double Distance(VertexId v) const;

  /// Vertices settled by the last run (distance <= bound), unordered.
  const std::vector<VertexId>& Settled() const { return settled_; }

  /// Distance from the last run's source to a position on an edge: the
  /// cheaper of entering through either endpoint. Does NOT account for a
  /// source on the same edge; PositionToPosition handles that shortcut.
  double DistanceToPosition(const EdgePosition& pos) const;

  /// Exact point-to-point distance between two edge positions, with early
  /// termination once `bound` is exceeded (returns kInfDistance then).
  double PositionToPosition(const EdgePosition& a, const EdgePosition& b,
                            double bound = kInfDistance);

  /// Exact vertex-to-vertex distance with early termination.
  double VertexToVertex(VertexId s, VertexId t, double bound = kInfDistance);

  const RoadNetwork& graph() const { return *graph_; }

 private:
  struct HeapGreater {
    bool operator()(const std::pair<double, VertexId>& a,
                    const std::pair<double, VertexId>& b) const {
      return a.first > b.first;
    }
  };

  // Run and RunWithTargets over spans: the convenience entry points seed
  // it from stack arrays, so a search allocates nothing once warm.
  void Search(std::span<const std::pair<VertexId, double>> seeds,
              double bound, std::span<const VertexId> targets);
  void Reset();
  void Relax(VertexId v, double dist);

  const RoadNetwork* graph_;
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;          // Label validity (tentative).
  std::vector<uint32_t> settled_stamp_;  // Label finality (exact).
  std::vector<uint32_t> target_stamp_;   // RunWithTargets membership.
  uint32_t generation_ = 0;
  std::vector<VertexId> settled_;
  // Binary heap of (distance, vertex); lazily deleted entries.
  std::vector<std::pair<double, VertexId>> heap_;
};

/// Direct distance along a shared edge between two positions, or
/// kInfDistance when they are on different edges.
double SameEdgeDistance(const RoadNetwork& graph, const EdgePosition& a,
                        const EdgePosition& b);

/// An index from road edges to the POIs located on them, enabling exact
/// network ball queries over POIs. POI i of the backing vector has id i,
/// and the vector may only grow: each ball first registers the POIs
/// appended since the last one, in id order, so every POI takes the slot a
/// locator built over the grown vector gives it. Not thread-safe; one
/// locator per thread.
class PoiLocator {
 public:
  PoiLocator(const RoadNetwork* graph, const std::vector<Poi>* pois);

  /// Returns ids of all POIs with dist_RN(center, poi) <= radius, using a
  /// bounded Dijkstra from `center`. Exact: a network path to a POI on edge
  /// (u, v) must pass u or v, or start on the same edge.
  std::vector<PoiId> Ball(const EdgePosition& center, double radius,
                          DijkstraEngine* engine);

  /// As Ball, but also reports each POI's exact distance from the center.
  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius, DijkstraEngine* engine);

 private:
  const RoadNetwork* graph_;
  const std::vector<Poi>* pois_;
  std::vector<std::vector<PoiId>> pois_on_edge_;
  size_t num_registered_ = 0;  // pois_[0, num_registered_) are on an edge.
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_SHORTEST_PATH_H_
