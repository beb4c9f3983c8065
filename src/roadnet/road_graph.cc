#include "roadnet/road_graph.h"

#include <algorithm>

#include "common/macros.h"

namespace gpssn {

double RoadNetwork::AverageDegree() const {
  if (points_.empty()) return 0.0;
  return 2.0 * num_edges() / static_cast<double>(num_vertices());
}

Point RoadNetwork::PositionPoint(const EdgePosition& p) const {
  GPSSN_CHECK(p.edge >= 0 && p.edge < num_edges());
  return Lerp(points_[edge_u_[p.edge]], points_[edge_v_[p.edge]], p.t);
}

double RoadNetwork::OffsetTo(const EdgePosition& p, VertexId end) const {
  GPSSN_CHECK(p.edge >= 0 && p.edge < num_edges());
  const double w = edge_w_[p.edge];
  if (end == edge_u_[p.edge]) return p.t * w;
  GPSSN_CHECK(end == edge_v_[p.edge]);
  return (1.0 - p.t) * w;
}

void RoadNetwork::BoundingBox(Point* lo, Point* hi) const {
  lo->x = lo->y = std::numeric_limits<double>::infinity();
  hi->x = hi->y = -std::numeric_limits<double>::infinity();
  for (const Point& p : points_) {
    lo->x = std::min(lo->x, p.x);
    lo->y = std::min(lo->y, p.y);
    hi->x = std::max(hi->x, p.x);
    hi->y = std::max(hi->y, p.y);
  }
}

void RoadNetwork::BuildCsr() {
  const int n = static_cast<int>(points_.size());
  const int m = static_cast<int>(edge_u_.size());
  offsets_.assign(n + 1, 0);
  for (int e = 0; e < m; ++e) {
    ++offsets_[edge_u_[e] + 1];
    ++offsets_[edge_v_[e] + 1];
  }
  for (int v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  arcs_.resize(2 * static_cast<size_t>(m));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const VertexId u = edge_u_[e], v = edge_v_[e];
    const double w = edge_w_[e];
    arcs_[cursor[u]++] = RoadArc{v, e, w};
    arcs_[cursor[v]++] = RoadArc{u, e, w};
  }
}

VertexId RoadNetworkBuilder::AddVertex(Point p) {
  points_.push_back(p);
  adjacency_.emplace_back();
  return static_cast<VertexId>(points_.size() - 1);
}

Result<EdgeId> RoadNetworkBuilder::AddEdge(VertexId a, VertexId b,
                                           double weight) {
  if (a < 0 || b < 0 || a >= num_vertices() || b >= num_vertices()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("self-loop edges are not allowed");
  }
  if (HasEdge(a, b)) {
    return Status::AlreadyExists("parallel edge");
  }
  if (weight < 0.0) {
    weight = EuclideanDistance(points_[a], points_[b]);
  }
  edge_u_.push_back(a);
  edge_v_.push_back(b);
  edge_w_.push_back(weight);
  auto insert_sorted = [](std::vector<VertexId>* v, VertexId x) {
    v->insert(std::upper_bound(v->begin(), v->end(), x), x);
  };
  insert_sorted(&adjacency_[a], b);
  insert_sorted(&adjacency_[b], a);
  return static_cast<EdgeId>(edge_u_.size() - 1);
}

bool RoadNetworkBuilder::HasEdge(VertexId a, VertexId b) const {
  const auto& adj = adjacency_[a];
  return std::binary_search(adj.begin(), adj.end(), b);
}

RoadNetwork RoadNetworkBuilder::Build() {
  RoadNetwork g;
  g.points_ = std::move(points_);
  g.edge_u_ = std::move(edge_u_);
  g.edge_v_ = std::move(edge_v_);
  g.edge_w_ = std::move(edge_w_);
  g.BuildCsr();
  *this = RoadNetworkBuilder();
  return g;
}

}  // namespace gpssn
