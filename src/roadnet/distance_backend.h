// Copyright 2026 The gpssn Authors.
//
// Pluggable exact-distance backends for the GP-SSN query path. The
// refinement phase's hottest kernel is "distances from one user to the
// members of every surviving POI ball" (the maxdist_RN evaluations of
// Definition 5); this header abstracts it behind a DistanceEngine so the
// processor can run either
//   * the reference bounded Dijkstra (bit-exact seed behaviour, optimal
//     for radius-bounded local searches), or
//   * a contraction-hierarchy bucket engine: one backward upward search
//     per target POI filling per-vertex buckets, then ONE forward upward
//     search per user — so a user's distances to all needed ball members
//     cost O(upward search space) instead of a bounded Dijkstra over the
//     whole neighbourhood. On large road networks the upward search space
//     is orders of magnitude smaller than the Dijkstra frontier.
//
// Both engines return IDENTICAL results (up to floating-point association
// in shortcut weights, < 1e-9 on realistic weights); the differential test
// suite asserts answer-level equality across backends.

#ifndef GPSSN_ROADNET_DISTANCE_BACKEND_H_
#define GPSSN_ROADNET_DISTANCE_BACKEND_H_

#include <memory>
#include <span>
#include <string>
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
  /// does not call this: it reads its balls from I_R (PoiAug::ball). The
  /// oracle and the r/θ estimators call it on a private Dijkstra backend,
  /// and perfbench's answer checker and traced ball replay on the
  /// workload's backend.
  virtual std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) = 0;

  /// Registers the target positions for subsequent SourceToTargets calls.
  /// The CH engine runs one backward upward search per target here,
  /// bucketing (target, distance) entries at every reached vertex; the
  /// Dijkstra engine just stores the list. Targets stay registered until
  /// the next SetTargets call.
  virtual void SetTargets(std::span<const EdgePosition> targets) = 0;

  /// Exact distances from `source` to every registered target, in one
  /// forward search. out[i] receives dist_RN(source, targets[i]) when it
  /// is <= bound, kInfDistance otherwise. `out` must have room for one
  /// entry per registered target.
  virtual void SourceToTargets(const EdgePosition& source, double bound,
                               double* out) = 0;
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

  /// True when the preprocessed index was loaded from an index file
  /// rather than built in-process (see MakeChBackend's index_path).
  virtual bool loaded_from_disk() const { return false; }
};

/// The reference backend: bounded Dijkstra with reusable arenas. Engines
/// reproduce the seed query path bit-exactly.
std::unique_ptr<DistanceBackend> MakeDijkstraBackend(
    const RoadNetwork* graph, const std::vector<Poi>* pois);

/// The CH-accelerated backend. Builds a ContractionHierarchy once
/// (seconds for 10^5-vertex graphs); engines answer SourceToTargets with
/// the bucket many-to-many algorithm and BallWithDistances with the
/// reference bounded Dijkstra.
///
/// When `index_path` is non-empty, the backend tries to load a previously
/// saved graph+CH index from that file (validating its checksums, its
/// structure, and that its fingerprint matches `graph`); on any mismatch
/// it rebuilds from `graph` and best-effort saves the result back to
/// `index_path`.
std::unique_ptr<DistanceBackend> MakeChBackend(
    const RoadNetwork* graph, const std::vector<Poi>* pois,
    const ChOptions& options = {}, const std::string& index_path = {});

}  // namespace gpssn

#endif  // GPSSN_ROADNET_DISTANCE_BACKEND_H_
