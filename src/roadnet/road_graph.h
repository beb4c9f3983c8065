// Copyright 2026 The gpssn Authors.
//
// The spatial road network G_r (Definition 1): an undirected graph embedded
// in the 2D plane, with weighted edges (road segments) and vertices at road
// intersections. Built once via RoadNetworkBuilder, then immutable; the
// adjacency is stored in CSR form for cache-friendly traversal.

#ifndef GPSSN_ROADNET_ROAD_GRAPH_H_
#define GPSSN_ROADNET_ROAD_GRAPH_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/point.h"
#include "roadnet/types.h"

namespace gpssn {

/// One directed half of an undirected road edge, as seen from a vertex.
struct RoadArc {
  VertexId to = kInvalidVertex;
  EdgeId edge = kInvalidEdge;
  double weight = 0.0;
};

/// Immutable road network. Construct with RoadNetworkBuilder.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  int num_vertices() const { return static_cast<int>(points_.size()); }
  int num_edges() const { return static_cast<int>(edge_u_.size()); }

  const Point& vertex_point(VertexId v) const { return points_[v]; }

  VertexId edge_u(EdgeId e) const { return edge_u_[e]; }
  VertexId edge_v(EdgeId e) const { return edge_v_[e]; }
  double edge_weight(EdgeId e) const { return edge_w_[e]; }

  /// Outgoing arcs of `v` (each undirected edge appears once per endpoint).
  std::span<const RoadArc> Neighbors(VertexId v) const {
    return std::span<const RoadArc>(arcs_.data() + offsets_[v],
                                    offsets_[v + 1] - offsets_[v]);
  }

  int Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Average vertex degree (the deg(G_r) statistic of Table 2).
  double AverageDegree() const;

  /// 2D location of a position on an edge (linear interpolation between the
  /// edge's endpoint coordinates).
  Point PositionPoint(const EdgePosition& p) const;

  /// Distance along the edge from `p` to the edge endpoint `end`
  /// (which must be one of the edge's two endpoints).
  double OffsetTo(const EdgePosition& p, VertexId end) const;

  /// Bounding box of all vertex coordinates.
  void BoundingBox(Point* lo, Point* hi) const;

 private:
  friend class RoadNetworkBuilder;

  /// Rebuilds offsets_/arcs_ from the edge arrays.
  void BuildCsr();

  std::vector<Point> points_;
  std::vector<VertexId> edge_u_, edge_v_;
  std::vector<double> edge_w_;
  // CSR adjacency.
  std::vector<int> offsets_;
  std::vector<RoadArc> arcs_;
};

/// Accumulates vertices/edges, then finalizes the CSR representation.
class RoadNetworkBuilder {
 public:
  VertexId AddVertex(Point p);

  /// Adds an undirected edge. `weight` < 0 means "use the Euclidean length
  /// of the segment". Returns InvalidArgument for self-loops or bad ids;
  /// parallel edges are rejected as AlreadyExists.
  Result<EdgeId> AddEdge(VertexId a, VertexId b, double weight = -1.0);

  bool HasEdge(VertexId a, VertexId b) const;

  int num_vertices() const { return static_cast<int>(points_.size()); }
  int num_edges() const { return static_cast<int>(edge_u_.size()); }

  /// Builds the immutable network. The builder is left empty.
  RoadNetwork Build();

 private:
  std::vector<Point> points_;
  std::vector<VertexId> edge_u_, edge_v_;
  std::vector<double> edge_w_;
  // Adjacency sets for duplicate detection (sorted vectors per vertex).
  std::vector<std::vector<VertexId>> adjacency_;
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_ROAD_GRAPH_H_
