// Copyright 2026 The gpssn Authors.
//
// Pluggable exact-distance backends for the GP-SSN query path. The
// refinement phase's hottest kernel is "distances from one user to the
// members of the POI balls it reads" (the maxdist_RN evaluations of
// Definition 5); this header abstracts it behind a DistanceEngine so the
// processor can run either
//   * the reference bounded Dijkstra (bit-exact seed behaviour, optimal
//     for radius-bounded local searches), whose rows are RESUMABLE: a row
//     opens from its source without searching and settles only as far as
//     its reads need, one visited center's ball at a time (incremental
//     network expansion), or
//   * a contraction-hierarchy sweep engine: registering the targets marks
//     their upward closure once, then each user costs ONE forward upward
//     search plus one linear pass down that closure in rank order — so a
//     user's distances to all needed ball members cost O(upward search
//     space + closure) instead of a bounded Dijkstra over the whole
//     neighbourhood. Its sweep costs the same at any radius, so it fills a
//     whole row at the row's first growth.
//
// Both engines return IDENTICAL results (up to floating-point association
// in shortcut weights, < 1e-9 on realistic weights); the differential test
// suite asserts answer-level equality across backends.

#ifndef GPSSN_ROADNET_DISTANCE_BACKEND_H_
#define GPSSN_ROADNET_DISTANCE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "roadnet/contraction_hierarchy.h"
#include "roadnet/poi.h"
#include "roadnet/road_graph.h"
#include "roadnet/shortest_path.h"

namespace gpssn {

enum class DistanceBackendKind {
  kDijkstra,
  kContractionHierarchy,
};

/// Per-thread exact-distance engine. Owns reusable arenas; not
/// thread-safe — create one engine per thread (DistanceBackend::CreateEngine
/// is cheap relative to preprocessing).
class DistanceEngine {
 public:
  virtual ~DistanceEngine() = default;

  /// All POIs with dist_RN(center, poi) <= radius, with exact distances.
  /// Both backends answer with the reference bounded search
  /// (PoiLocator::BallWithDistances), which also covers POIs appended to
  /// the backend's vector after the engine was created. The query path
  /// does not call this: it reads its balls from I_R (the prefixes
  /// PoiIndex::BallPrefix measures off PoiIndex::ball_ids). The
  /// oracle and the r/θ estimators call it on a private Dijkstra backend,
  /// and perfbench's answer checker and traced ball replay on the
  /// workload's backend.
  virtual std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) = 0;

  /// Registers the target positions for subsequent SourceToTargets and
  /// row calls, and closes every open row. The CH engine marks every vertex
  /// an upward path from a target's edge endpoints reaches and lists them
  /// in descending rank here; the Dijkstra engine lists the targets at each
  /// edge endpoint. Targets stay registered until the next SetTargets call.
  virtual void SetTargets(std::span<const EdgePosition> targets) = 0;

  /// Exact distances from `source` to every registered target, in one
  /// forward search. out[i] receives dist_RN(source, targets[i]) when it
  /// is <= bound, kInfDistance otherwise. `out` must have room for one
  /// entry per registered target.
  virtual void SourceToTargets(const EdgePosition& source, double bound,
                               double* out) = 0;

  /// Opens a row from `source` to the registered targets without
  /// searching, and returns its handle, valid until the next SetTargets
  /// call. `dists` is the row's storage, one entry per registered target,
  /// which the caller keeps between the row's calls: each entry starts at
  /// kInfDistance, or at the exact distance when the caller already knows
  /// it. The engine only lowers entries, never below their distance.
  virtual int32_t OpenRow(const EdgePosition& source, double* dists) = 0;

  /// Grows row `row` until every target in `wanted` (indices into the
  /// registered list) is decided under `bound`: then dists[j] <= bound is
  /// dist_RN(source, targets[j]) with the bits SourceToTargets(source,
  /// bound) reports, and dists[j] > bound proves dist_RN > bound. An entry
  /// decided under a bound stays decided under every smaller one. Entries
  /// outside `wanted` may drop too.
  virtual void GrowRow(int32_t row, std::span<const int32_t> wanted,
                       double bound, double* dists) = 0;

  /// The largest bound under which every entry of row `row` is decided
  /// already, so that GrowRow under it would search no further: just
  /// below the Dijkstra row's least frontier key (+inf once its search has
  /// settled all it reaches), the bound of a CH row's sweep, and
  /// -kInfDistance before a CH row's first growth.
  virtual double RowDecidedBound(int32_t row) const = 0;

  /// True when a row costs the same however it is reopened: its first
  /// growth is one sweep over every registered target, so a caller that
  /// registers more targets (SetTargets closes every row) pays one sweep
  /// per row it reopens. True for the CH engine; false for the Dijkstra
  /// engine, whose reopened row would redo the search it had grown.
  virtual bool RowRefillsInOneSweep() const = 0;

  /// Vertices this engine's row searches (SourceToTargets and grown rows)
  /// have settled since it was created: the Dijkstra rows' settles, the CH
  /// engine's upward-search settles. A work counter for benchmarks.
  virtual uint64_t vertices_settled() const = 0;
};

/// Immutable, thread-safe engine factory bound to one road network and POI
/// set (both kept by pointer; must outlive the backend). Share one backend
/// across all query processors / batch-executor workers; hand each thread
/// its own engine. Engines may reference state owned by their backend (the
/// CH backend owns the hierarchy) — an engine must not outlive the backend
/// that created it.
class DistanceBackend {
 public:
  virtual ~DistanceBackend() = default;

  virtual std::unique_ptr<DistanceEngine> CreateEngine() const = 0;
};

/// The reference backend: bounded Dijkstra with reusable arenas. Engines
/// reproduce the seed query path bit-exactly. A grown row is a resumable
/// search of its own: a frontier heap and a settled bitset, pooled across
/// SetTargets calls, with no per-vertex label array.
std::unique_ptr<DistanceBackend> MakeDijkstraBackend(
    const RoadNetwork* graph, const std::vector<Poi>* pois);

/// The CH-accelerated backend. Builds a ContractionHierarchy once
/// (seconds for 10^5-vertex graphs); engines answer SourceToTargets with
/// one restricted downward sweep over the targets' upward closure per
/// source (RPHAST) and BallWithDistances with the reference bounded
/// Dijkstra. A row is one such sweep under the bound of its first growth.
std::unique_ptr<DistanceBackend> MakeChBackend(const RoadNetwork* graph,
                                               const std::vector<Poi>* pois,
                                               const ChOptions& options = {});

}  // namespace gpssn

#endif  // GPSSN_ROADNET_DISTANCE_BACKEND_H_
