#include "core/database.h"

#include <string>
#include <utility>

#include "common/macros.h"
#include "core/audit.h"

namespace gpssn {

Status CheckPivotCounts(const SpatialSocialNetwork& ssn,
                        const GpssnBuildOptions& options) {
  if (options.num_road_pivots < 1 ||
      options.num_road_pivots > ssn.road().num_vertices() ||
      options.num_social_pivots < 1 ||
      options.num_social_pivots > ssn.num_users()) {
    return Status::InvalidArgument(
        "cannot pick " + std::to_string(options.num_road_pivots) +
        " road and " + std::to_string(options.num_social_pivots) +
        " social pivots from " + std::to_string(ssn.road().num_vertices()) +
        " road vertices and " + std::to_string(ssn.num_users()) + " users");
  }
  return Status::OK();
}

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn)
    : GpssnDatabase(std::move(ssn), GpssnBuildOptions{}) {}

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn,
                             const GpssnBuildOptions& options)
    : ssn_(std::move(ssn)), options_(options) {
  GPSSN_CHECK_OK(ssn_.Validate());
  GPSSN_CHECK_OK(CheckPivotCounts(ssn_, options));
  std::vector<VertexId> road_pivot_ids;
  std::vector<UserId> social_pivot_ids;
  if (options.optimize_pivots) {
    const PivotSelectOptions select{.seed = options.seed};
    road_pivot_ids =
        SelectRoadPivots(ssn_.road(), options.num_road_pivots, select);
    social_pivot_ids =
        SelectSocialPivots(ssn_.social(), options.num_social_pivots, select);
  } else {
    road_pivot_ids =
        RandomRoadPivots(ssn_.road(), options.num_road_pivots, options.seed);
    social_pivot_ids = RandomSocialPivots(
        ssn_.social(), options.num_social_pivots, options.seed);
  }
  road_pivots_ = RoadPivotTable(ssn_.road(), std::move(road_pivot_ids));
  social_pivots_ = SocialPivotTable(ssn_.social(), std::move(social_pivot_ids));

  PoiIndexOptions poi_options = options.poi_index;
  poi_options.seed = options.seed;
  poi_index_ = std::make_unique<PoiIndex>(&ssn_, &road_pivots_, poi_options);

  SocialIndexOptions social_options = options.social_index;
  social_options.seed = options.seed;
  social_index_ = std::make_unique<SocialIndex>(&ssn_, &social_pivots_,
                                                &road_pivots_, social_options);

  if (options.distance_backend == DistanceBackendKind::kContractionHierarchy) {
    backend_ = MakeChBackend(&ssn_.road(), &ssn_.pois(), options.ch);
  }
  if (options.distance_cache_entries > 0) {
    DistanceCacheOptions cache_options;
    cache_options.max_entries = options.distance_cache_entries;
    distance_cache_ = std::make_unique<DistanceCache>(cache_options);
  }

  processor_ =
      std::make_unique<GpssnProcessor>(poi_index_.get(), social_index_.get());
}

QueryOptions GpssnDatabase::WithDatabaseDefaults(QueryOptions options) const {
  if (options.distance_backend == nullptr) {
    options.distance_backend = backend_.get();
  }
  if (options.distance_cache == nullptr &&
      options.distance_backend == backend_.get()) {
    options.distance_cache = distance_cache_.get();
  }
  return options;
}

Result<GpssnAnswer> GpssnDatabase::Query(const GpssnQuery& query,
                                         const QueryOptions& options,
                                         QueryStats* stats) {
  return processor_->Execute(query, WithDatabaseDefaults(options), stats);
}

Result<GpssnAnswer> GpssnDatabase::Query(const GpssnQuery& query,
                                         QueryStats* stats) {
  return processor_->Execute(query, WithDatabaseDefaults(QueryOptions{}),
                             stats);
}

Result<std::vector<GpssnAnswer>> GpssnDatabase::QueryTopK(
    const GpssnQuery& query, int k, const QueryOptions& options,
    QueryStats* stats) {
  return processor_->ExecuteTopK(query, k, WithDatabaseDefaults(options),
                                 stats);
}

std::vector<BatchQueryResult> GpssnDatabase::QueryBatch(
    std::span<const GpssnQuery> queries, const BatchExecutorOptions& options,
    BatchStats* stats) {
  BatchExecutorOptions batch_options = options;
  batch_options.query = WithDatabaseDefaults(batch_options.query);
  GpssnBatchExecutor executor(poi_index_.get(), social_index_.get(),
                              batch_options);
  return executor.ExecuteAll(queries, stats);
}

Status GpssnDatabase::UpdateUserInterests(UserId u,
                                          std::span<const double> interests) {
  MutexLock lock(maintenance_mu_);
  GPSSN_RETURN_NOT_OK(ssn_.UpdateUserInterests(u, interests));
  return social_index_->UpdateUserInterests(u);
}

Result<PoiId> GpssnDatabase::AddPoi(const EdgePosition& position,
                                    std::vector<KeywordId> keywords) {
  MutexLock lock(maintenance_mu_);
  GPSSN_ASSIGN_OR_RETURN(const PoiId id,
                         ssn_.AddPoi(position, std::move(keywords)));
  GPSSN_RETURN_NOT_OK(poi_index_->InsertPoi(id));
#ifdef GPSSN_AUDIT
  AuditIndexesOrDie(*poi_index_, *social_index_);
#endif
  // The distance cache stays as it is: the road graph is unchanged (the
  // new POI lands on an existing edge), so every cached distance is still
  // exact, and no cached row holds the new, never-used id.
  return id;
}

}  // namespace gpssn
