// Copyright 2026 The gpssn Authors.
//
// GpssnDatabase: the one-stop entry point of the library. Owns a
// spatial-social network plus everything needed to answer GP-SSN queries —
// road/social pivot tables (selected via Algorithm 1 or at random), the two
// indexes I_R and I_S, and a query processor.

#ifndef GPSSN_CORE_DATABASE_H_
#define GPSSN_CORE_DATABASE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/executor.h"
#include "core/query.h"
#include "index/pivot_select.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/distance_backend.h"
#include "roadnet/distance_cache.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

struct GpssnBuildOptions {
  /// Number of road-network pivots h and social-network pivots l (Table 3
  /// default: 5).
  int num_road_pivots = 5;
  int num_social_pivots = 5;
  /// Use Algorithm 1's cost-model local search (true) or random pivots.
  bool optimize_pivots = true;
  PivotSelectOptions pivot_select;
  PoiIndexOptions poi_index;
  SocialIndexOptions social_index;
  uint64_t seed = 1;
  /// Exact-distance backend for refinement (roadnet/distance_backend.h).
  /// kDijkstra keeps the processor's built-in bounded Dijkstra (bit-exact
  /// seed behaviour, no preprocessing); kContractionHierarchy builds a CH
  /// once at database construction and answers refinement's one-to-many
  /// evaluations with bucket queries.
  DistanceBackendKind distance_backend = DistanceBackendKind::kDijkstra;
  /// CH construction knobs (used only for kContractionHierarchy).
  ChOptions ch;
  /// Persistence path for the graph + CH index (kContractionHierarchy
  /// only; empty = always build in-process). When set, construction loads
  /// a previously saved index from this file if its checksums validate
  /// and it matches the road network, and otherwise builds and saves one
  /// (see roadnet/index_io.h).
  std::string ch_index_path;
  /// Capacity, in (user, POI) items, of the shared cross-query distance
  /// row cache (roadnet/distance_cache.h); 0 disables it. The cache is
  /// shared by every query, batch worker and serving shard of this
  /// database that runs on its distance backend, and is invalidated
  /// automatically on AddPoi.
  size_t distance_cache_entries = 0;
};

/// Owns the network, the pivot tables, both indexes, and a processor.
class GpssnDatabase {
 public:
  /// Builds everything offline. This is the expensive step (pivot Dijkstra
  /// tables, per-POI ball queries, graph partitioning).
  explicit GpssnDatabase(SpatialSocialNetwork ssn);
  GpssnDatabase(SpatialSocialNetwork ssn, const GpssnBuildOptions& options);

  /// Snapshot-loading constructor (see core/snapshot.h): reuses the pivot
  /// ids and per-POI keyword sets of a previous build instead of
  /// recomputing them.
  GpssnDatabase(SpatialSocialNetwork ssn, const GpssnBuildOptions& options,
                std::vector<VertexId> road_pivot_ids,
                std::vector<UserId> social_pivot_ids,
                std::vector<PoiAug> poi_augs);

  GPSSN_DISALLOW_COPY_AND_MOVE(GpssnDatabase);

  /// The options the database was built with (a snapshot saves them).
  const GpssnBuildOptions& build_options() const { return options_; }
  const SpatialSocialNetwork& ssn() const { return ssn_; }
  const RoadPivotTable& road_pivots() const { return road_pivots_; }
  const SocialPivotTable& social_pivots() const { return social_pivots_; }
  const PoiIndex& poi_index() const { return *poi_index_; }
  const SocialIndex& social_index() const { return *social_index_; }
  /// The database-level distance backend (null when the build options
  /// selected kDijkstra: the processor's built-in engine is used).
  const DistanceBackend* distance_backend() const { return backend_.get(); }
  /// The shared cross-query distance cache (null when disabled). It is
  /// internally synchronized, so a const database hands it out too.
  DistanceCache* distance_cache() const { return distance_cache_.get(); }

  /// `options` with the database's defaults filled in: a null
  /// `distance_backend` becomes the database's backend, and a null
  /// `distance_cache` becomes the database's cache when the query then
  /// runs on the database's backend. A cache holds one engine's rows,
  /// and engines may differ in the last bit, so a caller's own backend
  /// gets no cache unless it brings one. Every entry point (Query,
  /// QueryTopK, QueryBatch, serving::ServingCluster) applies this.
  QueryOptions WithDatabaseDefaults(QueryOptions options) const;

  /// Answers a GP-SSN query (see GpssnProcessor::Execute).
  Result<GpssnAnswer> Query(const GpssnQuery& query,
                            const QueryOptions& options,
                            QueryStats* stats = nullptr);
  Result<GpssnAnswer> Query(const GpssnQuery& query,
                            QueryStats* stats = nullptr);

  /// Top-k extension: the k best (S, R) pairs, ascending by maxdist_RN.
  Result<std::vector<GpssnAnswer>> QueryTopK(const GpssnQuery& query, int k,
                                             const QueryOptions& options,
                                             QueryStats* stats = nullptr);

  /// Concurrent batch entry point: runs `queries` across a pool of
  /// `options.num_workers` processors (see GpssnBatchExecutor) and returns
  /// per-query results in input order; `stats` (optional) receives the
  /// batch aggregate. For sustained workloads construct a
  /// GpssnBatchExecutor directly and reuse it across batches.
  std::vector<BatchQueryResult> QueryBatch(
      std::span<const GpssnQuery> queries,
      const BatchExecutorOptions& options = {}, BatchStats* stats = nullptr);

  /// Dynamic maintenance: a new facility opens on an existing road edge.
  /// Appends the POI, patches I_R (see PoiIndex::InsertPoi), and drops the
  /// new id's column from the distance cache. Returns the new POI id. Maintenance calls
  /// serialize on maintenance_mu_ (single-writer); they must still not
  /// overlap concurrent queries — see the class comment.
  Result<PoiId> AddPoi(const EdgePosition& position,
                       std::vector<KeywordId> keywords)
      GPSSN_EXCLUDES(maintenance_mu_);

  /// Dynamic maintenance: a user's interest profile drifted (new
  /// check-ins). Updates the network and patches I_S's interest boxes.
  /// Serialized on maintenance_mu_ like AddPoi.
  Status UpdateUserInterests(UserId u, std::span<const double> interests)
      GPSSN_EXCLUDES(maintenance_mu_);

 private:
  /// What a snapshot restores instead of recomputing.
  struct Restored {
    std::vector<VertexId> road_pivot_ids;
    std::vector<UserId> social_pivot_ids;
    std::vector<PoiAug> poi_augs;
  };
  /// The body of both public constructors: selects the pivots and computes
  /// I_R's augmentations unless `restored` carries them.
  GpssnDatabase(SpatialSocialNetwork ssn, const GpssnBuildOptions& options,
                std::optional<Restored> restored);

  // Serializes the dynamic-maintenance mutators (AddPoi,
  // UpdateUserInterests) against EACH OTHER: two concurrent AddPoi calls
  // used to interleave their ssn_ append and I_R patch with no lock at
  // all. Queries are NOT covered — the reader side of
  // maintenance-vs-query isolation is the ROADMAP's snapshot-isolation
  // item; until then callers must quiesce queries around maintenance,
  // exactly as before.
  Mutex maintenance_mu_;

  SpatialSocialNetwork ssn_;
  GpssnBuildOptions options_;
  RoadPivotTable road_pivots_;
  SocialPivotTable social_pivots_;
  std::unique_ptr<PoiIndex> poi_index_;
  std::unique_ptr<SocialIndex> social_index_;
  std::unique_ptr<DistanceBackend> backend_;  // Null for kDijkstra.
  std::unique_ptr<DistanceCache> distance_cache_;  // Null when disabled.
  std::unique_ptr<GpssnProcessor> processor_;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_DATABASE_H_
