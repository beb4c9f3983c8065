#include "core/database.h"

#include <utility>

#include "common/macros.h"
#include "core/audit.h"

namespace gpssn {

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn)
    : GpssnDatabase(std::move(ssn), GpssnBuildOptions{}) {}

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn,
                             const GpssnBuildOptions& options)
    : GpssnDatabase(std::move(ssn), options, std::nullopt) {}

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn,
                             const GpssnBuildOptions& options,
                             std::vector<VertexId> road_pivot_ids,
                             std::vector<UserId> social_pivot_ids,
                             std::vector<PoiAug> poi_augs)
    : GpssnDatabase(std::move(ssn), options,
                    Restored{std::move(road_pivot_ids),
                             std::move(social_pivot_ids),
                             std::move(poi_augs)}) {}

GpssnDatabase::GpssnDatabase(SpatialSocialNetwork ssn,
                             const GpssnBuildOptions& options,
                             std::optional<Restored> restored)
    : ssn_(std::move(ssn)), options_(options) {
  GPSSN_CHECK_OK(ssn_.Validate());
  std::vector<VertexId> road_pivot_ids;
  std::vector<UserId> social_pivot_ids;
  if (restored.has_value()) {
    road_pivot_ids = std::move(restored->road_pivot_ids);
    social_pivot_ids = std::move(restored->social_pivot_ids);
  } else {
    GPSSN_CHECK(options.num_road_pivots >= 1);
    GPSSN_CHECK(options.num_social_pivots >= 1);
    PivotSelectOptions select = options.pivot_select;
    select.seed = options.seed;
    if (options.optimize_pivots) {
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
  }
  road_pivots_ = RoadPivotTable(ssn_.road(), std::move(road_pivot_ids));
  social_pivots_ = SocialPivotTable(ssn_.social(), std::move(social_pivot_ids));

  PoiIndexOptions poi_options = options.poi_index;
  poi_options.seed = options.seed;
  poi_index_ =
      restored.has_value()
          ? std::make_unique<PoiIndex>(&ssn_, &road_pivots_, poi_options,
                                       std::move(restored->poi_augs))
          : std::make_unique<PoiIndex>(&ssn_, &road_pivots_, poi_options);

  SocialIndexOptions social_options = options.social_index;
  social_options.seed = options.seed;
  social_index_ = std::make_unique<SocialIndex>(&ssn_, &social_pivots_,
                                                &road_pivots_, social_options);

  if (options.distance_backend == DistanceBackendKind::kContractionHierarchy) {
    backend_ = MakeChBackend(&ssn_.road(), &ssn_.pois(), options.ch,
                             options.ch_index_path);
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
  // Cached (user, poi) distances to OTHER POIs stay valid (the road graph
  // is unchanged — the new POI only lands on an existing edge), so a
  // wholesale Clear() would throw away every hit the batch workers have
  // paid for. Invalidate surgically instead: bump the new id's generation
  // bucket so any stale column under a recycled or colliding id can never
  // serve, and let everything else keep hitting.
  if (distance_cache_ != nullptr) distance_cache_->InvalidatePoi(id);
  return id;
}

}  // namespace gpssn
