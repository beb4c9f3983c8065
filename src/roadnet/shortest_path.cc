#include "roadnet/shortest_path.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace gpssn {

DijkstraEngine::DijkstraEngine(const RoadNetwork* graph) : graph_(graph) {
  GPSSN_CHECK(graph != nullptr);
  dist_.resize(graph->num_vertices(), kInfDistance);
  stamp_.resize(graph->num_vertices(), 0);
  settled_stamp_.resize(graph->num_vertices(), 0);
  target_stamp_.resize(graph->num_vertices(), 0);
}

void DijkstraEngine::Reset() {
  ++generation_;
  if (generation_ == 0) {  // Stamp wrap-around: hard reset.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(settled_stamp_.begin(), settled_stamp_.end(), 0);
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    generation_ = 1;
  }
  settled_.clear();
  heap_.clear();
}

void DijkstraEngine::Relax(VertexId v, double dist) {
  if (stamp_[v] == generation_ && dist_[v] <= dist) return;
  dist_[v] = dist;
  stamp_[v] = generation_;
  heap_.emplace_back(dist, v);
  std::push_heap(heap_.begin(), heap_.end(), HeapGreater());
}

void DijkstraEngine::Run(const std::vector<std::pair<VertexId, double>>& seeds,
                         double bound) {
  Search(seeds, bound, {});
}

void DijkstraEngine::RunWithTargets(
    const std::vector<std::pair<VertexId, double>>& seeds, double bound,
    const std::vector<VertexId>& targets) {
  Search(seeds, bound, targets);
}

void DijkstraEngine::Search(std::span<const std::pair<VertexId, double>> seeds,
                            double bound, std::span<const VertexId> targets) {
  Reset();
  for (const auto& [v, d] : seeds) {
    GPSSN_CHECK(v >= 0 && v < graph_->num_vertices());
    if (d <= bound) Relax(v, d);
  }
  // Generation-stamped target marks: O(1) membership per settled vertex,
  // and counting DISTINCT targets (duplicates in `targets` must not
  // inflate the count past what settling can clear, or early termination
  // would never fire).
  size_t targets_left = 0;
  for (VertexId t : targets) {
    GPSSN_CHECK(t >= 0 && t < graph_->num_vertices());
    if (target_stamp_[t] != generation_) {
      target_stamp_[t] = generation_;
      ++targets_left;
    }
  }
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater());
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (settled_stamp_[v] == generation_) continue;  // Stale entry.
    if (d > bound) break;
    settled_stamp_[v] = generation_;
    settled_.push_back(v);
    // Each vertex settles at most once per generation, so a marked target
    // decrements exactly once.
    if (targets_left > 0 && target_stamp_[v] == generation_) {
      if (--targets_left == 0) return;
    }
    for (const RoadArc& arc : graph_->Neighbors(v)) {
      const double nd = d + arc.weight;
      if (nd <= bound) Relax(arc.to, nd);
    }
  }
}

void DijkstraEngine::RunFromVertex(VertexId source, double bound) {
  const std::pair<VertexId, double> seeds[] = {{source, 0.0}};
  Search(seeds, bound, {});
}

void DijkstraEngine::RunFromPosition(const EdgePosition& pos, double bound) {
  const VertexId u = graph_->edge_u(pos.edge);
  const VertexId v = graph_->edge_v(pos.edge);
  const std::pair<VertexId, double> seeds[] = {{u, graph_->OffsetTo(pos, u)},
                                               {v, graph_->OffsetTo(pos, v)}};
  Search(seeds, bound, {});
}

double DijkstraEngine::Distance(VertexId v) const {
  return settled_stamp_[v] == generation_ ? dist_[v] : kInfDistance;
}

double DijkstraEngine::DistanceToPosition(const EdgePosition& pos) const {
  const VertexId u = graph_->edge_u(pos.edge);
  const VertexId v = graph_->edge_v(pos.edge);
  return std::min(Distance(u) + graph_->OffsetTo(pos, u),
                  Distance(v) + graph_->OffsetTo(pos, v));
}

double SameEdgeDistance(const RoadNetwork& graph, const EdgePosition& a,
                        const EdgePosition& b) {
  if (a.edge != b.edge) return kInfDistance;
  return std::abs(a.t - b.t) * graph.edge_weight(a.edge);
}

double DijkstraEngine::PositionToPosition(const EdgePosition& a,
                                          const EdgePosition& b,
                                          double bound) {
  const double direct = SameEdgeDistance(*graph_, a, b);
  const double effective_bound = std::min(bound, direct);
  const VertexId bu = graph_->edge_u(b.edge);
  const VertexId bv = graph_->edge_v(b.edge);
  const VertexId au = graph_->edge_u(a.edge);
  const VertexId av = graph_->edge_v(a.edge);
  const std::pair<VertexId, double> seeds[] = {{au, graph_->OffsetTo(a, au)},
                                               {av, graph_->OffsetTo(a, av)}};
  const VertexId targets[] = {bu, bv};
  Search(seeds, effective_bound, targets);
  const double via_network = DistanceToPosition(b);
  const double result = std::min(direct, via_network);
  return result <= bound ? result : kInfDistance;
}

double DijkstraEngine::VertexToVertex(VertexId s, VertexId t, double bound) {
  const std::pair<VertexId, double> seeds[] = {{s, 0.0}};
  const VertexId targets[] = {t};
  Search(seeds, bound, targets);
  const double d = Distance(t);
  return d <= bound ? d : kInfDistance;
}

PoiLocator::PoiLocator(const RoadNetwork* graph, const std::vector<Poi>* pois)
    : graph_(graph), pois_(pois) {
  GPSSN_CHECK(graph != nullptr && pois != nullptr);
  pois_on_edge_.resize(graph->num_edges());
}

std::vector<std::pair<PoiId, double>> PoiLocator::BallWithDistances(
    const EdgePosition& center, double radius, DijkstraEngine* engine) {
  GPSSN_CHECK(num_registered_ <= pois_->size());
  for (; num_registered_ < pois_->size(); ++num_registered_) {
    const EdgeId edge = (*pois_)[num_registered_].position.edge;
    GPSSN_CHECK(edge >= 0 && edge < graph_->num_edges());
    pois_on_edge_[edge].push_back(static_cast<PoiId>(num_registered_));
  }
  std::vector<std::pair<PoiId, double>> out;
  engine->RunFromPosition(center, radius);

  // Deduplicate edges incident to settled vertices.
  std::vector<EdgeId> edges;
  for (VertexId v : engine->Settled()) {
    for (const RoadArc& arc : graph_->Neighbors(v)) {
      if (!pois_on_edge_[arc.edge].empty()) edges.push_back(arc.edge);
    }
  }
  // The center's own edge may carry in-range POIs even when no vertex is
  // settled (tiny radius).
  if (!pois_on_edge_[center.edge].empty()) edges.push_back(center.edge);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  for (EdgeId e : edges) {
    const VertexId u = graph_->edge_u(e);
    const VertexId v = graph_->edge_v(e);
    const double du = engine->Distance(u);
    const double dv = engine->Distance(v);
    const double w = graph_->edge_weight(e);
    for (PoiId id : pois_on_edge_[e]) {
      const Poi& poi = (*pois_)[id];
      double d = std::min(du + poi.position.t * w,
                          dv + (1.0 - poi.position.t) * w);
      if (e == center.edge) {
        d = std::min(d, std::abs(center.t - poi.position.t) * w);
      }
      if (d <= radius) out.emplace_back(id, d);
    }
  }
  return out;
}

std::vector<PoiId> PoiLocator::Ball(const EdgePosition& center, double radius,
                                    DijkstraEngine* engine) {
  std::vector<PoiId> out;
  for (const auto& [id, d] : BallWithDistances(center, radius, engine)) {
    out.push_back(id);
  }
  return out;
}

}  // namespace gpssn
