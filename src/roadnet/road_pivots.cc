#include "roadnet/road_pivots.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/rng.h"

namespace gpssn {

RoadPivotTable::RoadPivotTable(const RoadNetwork& graph,
                               std::vector<VertexId> pivots)
    : graph_(&graph), pivots_(std::move(pivots)) {
  DijkstraEngine engine(&graph);
  tables_.resize(pivots_.size());
  for (size_t k = 0; k < pivots_.size(); ++k) {
    GPSSN_CHECK(pivots_[k] >= 0 && pivots_[k] < graph.num_vertices());
    engine.RunFromVertex(pivots_[k]);
    auto& table = tables_[k];
    table.resize(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      table[v] = engine.Distance(v);
    }
  }
}

double RoadPivotTable::PositionToPivot(const EdgePosition& pos, int k) const {
  const VertexId u = graph_->edge_u(pos.edge);
  const VertexId v = graph_->edge_v(pos.edge);
  return std::min(tables_[k][u] + graph_->OffsetTo(pos, u),
                  tables_[k][v] + graph_->OffsetTo(pos, v));
}

double RoadPivotTable::LowerBound(const std::vector<double>& a_to_pivots,
                                  const std::vector<double>& b_to_pivots) const {
  GPSSN_CHECK(a_to_pivots.size() == pivots_.size());
  GPSSN_CHECK(b_to_pivots.size() == pivots_.size());
  double best = 0.0;
  for (size_t k = 0; k < pivots_.size(); ++k) {
    best = std::max(best, std::abs(a_to_pivots[k] - b_to_pivots[k]));
  }
  return best;
}

std::vector<double> RoadPivotTable::PositionDistances(
    const EdgePosition& pos) const {
  std::vector<double> out(pivots_.size());
  for (int k = 0; k < num_pivots(); ++k) out[k] = PositionToPivot(pos, k);
  return out;
}

std::vector<VertexId> RandomRoadPivots(const RoadNetwork& graph, int h,
                                       uint64_t seed) {
  GPSSN_CHECK(h >= 1 && h <= graph.num_vertices());
  Rng rng(seed);
  std::vector<VertexId> out;
  for (size_t idx : rng.SampleWithoutReplacement(graph.num_vertices(), h)) {
    out.push_back(static_cast<VertexId>(idx));
  }
  return out;
}

}  // namespace gpssn
