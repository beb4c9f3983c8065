// Copyright 2026 The gpssn Authors.
//
// Road-network pivot distance tables (Section 4.1): h road-network vertices
// rp_1..rp_h are chosen as pivots and the exact dist_RN from every vertex to
// every pivot is precomputed offline. At query time the triangle inequality
// turns these tables into cheap lower/upper bounds of dist_RN between
// arbitrary positions (Eqs. 16-17 and the leaf-entry bounds of Eqs. 7-8).

#ifndef GPSSN_ROADNET_ROAD_PIVOTS_H_
#define GPSSN_ROADNET_ROAD_PIVOTS_H_

#include <vector>

#include "roadnet/road_graph.h"
#include "roadnet/shortest_path.h"
#include "roadnet/types.h"

namespace gpssn {

/// Precomputed exact distances from every road vertex to each pivot.
class RoadPivotTable {
 public:
  RoadPivotTable() = default;

  /// Runs one full Dijkstra per pivot. Pivot ids must be valid vertices.
  RoadPivotTable(const RoadNetwork& graph, std::vector<VertexId> pivots);

  int num_pivots() const { return static_cast<int>(pivots_.size()); }
  const std::vector<VertexId>& pivots() const { return pivots_; }

  /// Exact dist_RN(v, rp_k).
  double VertexToPivot(VertexId v, int k) const {
    return tables_[k][v];
  }

  /// Exact dist_RN(pos, rp_k) for a position on an edge (the cheaper of the
  /// two endpoint routes).
  double PositionToPivot(const EdgePosition& pos, int k) const;

  /// Triangle-inequality lower bound of dist_RN(a, b):
  ///   max_k | d(a, rp_k) − d(b, rp_k) |.
  double LowerBound(const std::vector<double>& a_to_pivots,
                    const std::vector<double>& b_to_pivots) const;

  /// All pivot distances of a position, as a dense vector of length h.
  std::vector<double> PositionDistances(const EdgePosition& pos) const;

 private:
  const RoadNetwork* graph_ = nullptr;
  std::vector<VertexId> pivots_;
  // tables_[k][v] = dist_RN(v, pivots_[k]).
  std::vector<std::vector<double>> tables_;
};

/// Picks `h` distinct random vertices as pivots (the baseline selection that
/// Algorithm 1's local search improves on; see index/pivot_select.h).
std::vector<VertexId> RandomRoadPivots(const RoadNetwork& graph, int h,
                                       uint64_t seed);

}  // namespace gpssn

#endif  // GPSSN_ROADNET_ROAD_PIVOTS_H_
