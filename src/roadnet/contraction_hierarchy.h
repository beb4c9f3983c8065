// Copyright 2026 The gpssn Authors.
//
// Contraction hierarchies (Geisberger et al. 2008) over the road network:
// an exact distance oracle that preprocesses the graph by contracting
// vertices in importance order (inserting shortcuts that preserve shortest
// paths), so an upward search from each end of a shortest path meets the
// other at the path's highest vertex, touching only a tiny fraction of the
// graph. The engine of roadnet/distance_backend.h answers the query path's
// one-to-many distances that way: one upward search from the source, then
// one sweep down the targets' upward closure in descending rank.
//
// Construction is ROUND-BASED: each round recomputes priorities for dirty
// vertices, selects the priority-local-minima (an independent set — no two
// selected vertices are adjacent), simulates every selected contraction
// against the round-start graph with witness searches that treat ALL
// round-selected vertices as removed, and then applies the results in
// vertex-id order. The rounds define the hierarchy, so building twice gives
// bitwise identical arrays.
//
// Witness searches skipping the whole selected set is what makes
// simultaneous contraction sound: a witness path found this round avoids
// every vertex removed this round, so it survives in the remaining graph
// and the usual one-at-a-time distance-preservation argument applies
// unchanged (skipping extra vertices can only add redundant shortcuts,
// never lose a needed one).
//
// The preprocessed arrays (rank permutation, its inverse and the CSR upward
// graph) are four vectors the hierarchy owns.
//
// This is the substrate a production deployment of GP-SSN uses for the
// exact maxdist evaluations of the refinement phase on continental road
// networks; the library's default Dijkstra engine remains the reference
// implementation (and the two are equivalence-tested against each other).

#ifndef GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_
#define GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "roadnet/road_graph.h"
#include "roadnet/shortest_path.h"

namespace gpssn {

struct ChOptions {
  /// Hop limit of the witness searches during contraction (higher = fewer
  /// shortcuts, slower preprocessing).
  int witness_hop_limit = 8;
  /// Settled-vertex budget per witness search.
  int witness_settle_limit = 64;
};

/// Preprocessed hierarchy. Build once (seconds for 10^5-vertex graphs),
/// then query from any number of MakeChBackend engines.
class ContractionHierarchy {
 public:
  /// Upward arc: an original road edge or a shortcut, to a higher-ranked
  /// vertex.
  struct UpArc {
    VertexId to = kInvalidVertex;
    double weight = 0.0;
  };

  ContractionHierarchy() : ContractionHierarchy(ChOptions{}) {}
  explicit ContractionHierarchy(ChOptions options);

  /// Preprocesses `graph` (kept by pointer; must outlive the hierarchy).
  void Build(const RoadNetwork* graph);

  bool built() const { return graph_ != nullptr; }
  const RoadNetwork& graph() const { return *graph_; }

  /// Contraction rank of a vertex (higher = more important).
  int rank(VertexId v) const { return rank_[v]; }

  /// The vertex of rank `r`: ranks are a permutation of [0, n).
  VertexId vertex_at_rank(int r) const { return by_rank_[r]; }

  /// Number of shortcut edges added during preprocessing.
  int num_shortcuts() const { return num_shortcuts_; }

  /// Number of contraction rounds the build ran.
  int build_rounds() const { return build_rounds_; }

  /// Upward adjacency (arcs from v to higher-ranked vertices, original or
  /// shortcut), sorted by target id; used by the query engines.
  std::span<const UpArc> up(VertexId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_arcs_.data() + up_offsets_[v + 1]};
  }

  /// Flat storage views (build digests and bitwise comparisons).
  std::span<const int32_t> ranks() const { return rank_; }
  std::span<const int64_t> up_offsets() const { return up_offsets_; }
  std::span<const UpArc> up_arcs() const { return up_arcs_; }

 private:
  ChOptions options_;
  const RoadNetwork* graph_ = nullptr;
  std::vector<int32_t> rank_;
  std::vector<VertexId> by_rank_;
  std::vector<int64_t> up_offsets_;
  std::vector<UpArc> up_arcs_;
  int num_shortcuts_ = 0;
  int build_rounds_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_
