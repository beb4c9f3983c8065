// Copyright 2026 The gpssn Authors.
//
// Contraction hierarchies (Geisberger et al. 2008) over the road network:
// an exact distance oracle that preprocesses the graph by contracting
// vertices in importance order (inserting shortcuts that preserve shortest
// paths) and answers point-to-point queries with a bidirectional upward
// search touching only a tiny fraction of the graph.
//
// Construction is ROUND-BASED: each round recomputes priorities for dirty
// vertices, selects the priority-local-minima (an independent set — no two
// selected vertices are adjacent), simulates every selected contraction
// against the round-start graph with witness searches that treat ALL
// round-selected vertices as removed, and then applies the results in
// vertex-id order. The rounds define the hierarchy, and with it the bytes
// of every index file (roadnet/index_io.h).
//
// Witness searches skipping the whole selected set is what makes
// simultaneous contraction sound: a witness path found this round avoids
// every vertex removed this round, so it survives in the remaining graph
// and the usual one-at-a-time distance-preservation argument applies
// unchanged (skipping extra vertices can only add redundant shortcuts,
// never lose a needed one).
//
// The preprocessed arrays (rank permutation + CSR upward graph) are three
// vectors the hierarchy owns; roadnet/index_io.h saves them to a file and
// copies them back out of one.
//
// This is the substrate a production deployment of GP-SSN uses for the
// exact maxdist evaluations of the refinement phase on continental road
// networks; the library's default Dijkstra engine remains the reference
// implementation (and the two are equivalence-tested against each other).

#ifndef GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_
#define GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <type_traits>
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
/// then query from any number of ChQuery engines.
class ContractionHierarchy {
 public:
  /// Upward arc: original road edge (middle == kInvalidVertex) or shortcut
  /// bypassing its contracted `middle` vertex. No query reads `middle`; it
  /// stays because the version-1 index file layout stores it. Fixed-width
  /// and trivially copyable — this struct is stored verbatim in index
  /// files (see roadnet/index_io.h).
  // gpssn-serialized(bytes=16)
  struct UpArc {
    VertexId to = kInvalidVertex;
    VertexId middle = kInvalidVertex;
    double weight = 0.0;
  };

  ContractionHierarchy() : ContractionHierarchy(ChOptions{}) {}
  explicit ContractionHierarchy(ChOptions options);

  /// A hierarchy over `graph` from the arrays a Build produced, as
  /// LoadRoadIndex reads them back after checking their structure.
  /// `graph` must outlive the hierarchy.
  ContractionHierarchy(const RoadNetwork* graph, const ChOptions& options,
                       std::vector<int32_t> rank,
                       std::vector<int64_t> up_offsets,
                       std::vector<UpArc> up_arcs, int num_shortcuts);

  /// Preprocesses `graph` (kept by pointer; must outlive the hierarchy).
  void Build(const RoadNetwork* graph);

  bool built() const { return graph_ != nullptr; }
  const RoadNetwork& graph() const { return *graph_; }
  const ChOptions& options() const { return options_; }

  /// Contraction rank of a vertex (higher = more important).
  int rank(VertexId v) const { return rank_[v]; }

  /// Number of shortcut edges added during preprocessing.
  int num_shortcuts() const { return num_shortcuts_; }

  /// Number of contraction rounds the build ran (0 for a loaded index).
  int build_rounds() const { return build_rounds_; }

  /// Upward adjacency (arcs from v to higher-ranked vertices, original or
  /// shortcut), sorted by target id; used by the query engines.
  std::span<const UpArc> up(VertexId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_arcs_.data() + up_offsets_[v + 1]};
  }

  /// Flat storage views (serialization + arc-indexed traversals).
  std::span<const int32_t> ranks() const { return rank_; }
  std::span<const int64_t> up_offsets() const { return up_offsets_; }
  std::span<const UpArc> up_arcs() const { return up_arcs_; }

 private:
  ChOptions options_;
  const RoadNetwork* graph_ = nullptr;
  std::vector<int32_t> rank_;
  std::vector<int64_t> up_offsets_;
  std::vector<UpArc> up_arcs_;
  int num_shortcuts_ = 0;
  int build_rounds_ = 0;
};

static_assert(std::is_trivially_copyable_v<ContractionHierarchy::UpArc>,
              "UpArc is stored verbatim in index files");
static_assert(sizeof(ContractionHierarchy::UpArc) == 16,
              "UpArc file layout is fixed at 16 bytes");

/// Query engine over a built hierarchy. Reusable arenas; not thread-safe
/// (one engine per thread).
class ChQuery {
 public:
  explicit ChQuery(const ContractionHierarchy* ch);

  /// Exact dist_RN(s, t) (kInfDistance when disconnected).
  double VertexToVertex(VertexId s, VertexId t);

  /// Exact distance between positions on edges (same-edge shortcut
  /// included).
  double PositionToPosition(const EdgePosition& a, const EdgePosition& b);

  /// Vertices settled by the last query (both directions).
  size_t last_settled() const { return last_settled_; }

 private:
  const ContractionHierarchy* ch_;
  // Two-sided upward Dijkstra state.
  std::vector<double> dist_[2];
  std::vector<uint32_t> stamp_[2];
  uint32_t generation_ = 0;
  std::vector<std::pair<double, VertexId>> heap_[2];
  size_t last_settled_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_CONTRACTION_HIERARCHY_H_
