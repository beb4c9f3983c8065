// Sharded-serving differential harness: on randomized synthetic networks,
// a ServingCluster must return BYTE-IDENTICAL answers to the single-node
// GpssnDatabase::Query path — same found flag, users, center, POIs, and
// bitwise-equal objective — at every shard count {1, 2, 4, 8} and under
// both distance backends (built-in Dijkstra and CH), each with a small
// shared distance cache that the single node and the shards read and fill.
// This is the acceptance gate of the discovery-rank merge protocol
// (DESIGN.md §12): shard answers carry (center_worst, group_index) and the
// coordinator's lexicographic merge reproduces the single-node serial
// loop's first-encountered winner exactly.

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "core/baseline.h"
#include "core/database.h"
#include "core/executor.h"
#include "roadnet/distance_backend.h"
#include "roadnet/distance_cache.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace gpssn::serving {
namespace {

class ShardedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Item budget of the test caches: a few rows per lock stripe.
constexpr size_t kSmallCacheEntries = size_t{1} << 10;

void ExpectIdenticalAnswer(const GpssnAnswer& want, const GpssnAnswer& got,
                           int shards, const char* backend, uint64_t seed,
                           int trial) {
  ASSERT_EQ(want.found, got.found) << "shards=" << shards << " " << backend
                                   << " seed=" << seed << " trial=" << trial;
  if (!want.found) return;
  EXPECT_EQ(want.users, got.users) << "shards=" << shards << " " << backend
                                   << " seed=" << seed << " trial=" << trial;
  EXPECT_EQ(want.center, got.center) << "shards=" << shards << " " << backend
                                     << " seed=" << seed << " trial=" << trial;
  EXPECT_EQ(want.pois, got.pois) << "shards=" << shards << " " << backend
                                 << " seed=" << seed << " trial=" << trial;
  // Bitwise: the sharded path runs the same arithmetic in the same order.
  EXPECT_EQ(want.max_dist, got.max_dist)
      << "shards=" << shards << " " << backend << " seed=" << seed
      << " trial=" << trial;
}

TEST_P(ShardedDifferentialTest, ShardedAnswersAreByteIdenticalToSingleNode) {
  Rng rng(GetParam() * 7321 + 13);

  SyntheticSsnOptions data;
  data.num_road_vertices = 110 + static_cast<int>(rng.NextBounded(100));
  data.num_pois = 35 + static_cast<int>(rng.NextBounded(35));
  data.num_users = 50 + static_cast<int>(rng.NextBounded(50));
  data.num_topics = 8 + static_cast<int>(rng.NextBounded(8));
  data.space_size = 12.0 + rng.UniformDouble(0, 6);
  data.distribution =
      rng.Bernoulli(0.5) ? Distribution::kUniform : Distribution::kZipf;
  data.seed = rng.Next();

  GpssnBuildOptions build;
  build.num_road_pivots = 1 + static_cast<int>(rng.NextBounded(4));
  build.num_social_pivots = 1 + static_cast<int>(rng.NextBounded(4));
  build.optimize_pivots = rng.Bernoulli(0.5);
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.seed = rng.Next();
  // Small, so rows are evicted while the shards race on them.
  build.distance_cache_entries = kSmallCacheEntries;

  GpssnDatabase db(MakeSynthetic(data), build);
  const auto ch_backend = MakeChBackend(&db.ssn().road(), &db.ssn().pois());
  // The database's cache holds Dijkstra rows, so the CH pass brings its
  // own, shared by the single node and every cluster alike.
  DistanceCacheOptions ch_cache_options;
  ch_cache_options.max_entries = kSmallCacheEntries;
  DistanceCache ch_cache(ch_cache_options);

  // A small query workload shared by every configuration.
  std::vector<GpssnQuery> workload;
  for (int trial = 0; trial < 3; ++trial) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.5);
    q.theta = rng.UniformDouble(0.05, 0.6);
    q.radius = rng.UniformDouble(0.4, 4.0);
    workload.push_back(q);
  }

  for (const bool use_ch : {false, true}) {
    const char* backend = use_ch ? "ch" : "dijkstra";
    QueryOptions single;
    if (use_ch) {
      single.distance_backend = ch_backend.get();
      single.distance_cache = &ch_cache;
    }

    // Single-node reference answers under the same backend.
    std::vector<GpssnAnswer> want(workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      auto reference = db.Query(workload[i], single);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      want[i] = *reference;
    }

    for (int shards : {1, 2, 4, 8}) {
      ServingOptions options;
      options.num_shards = shards;
      options.query = single;
      auto cluster = ServingCluster::Create(db, options);
      ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

      // Batch path (the pipelined event loop).
      BatchStats batch_stats;
      auto results = (*cluster)->QueryBatch(workload, &batch_stats);
      ASSERT_EQ(results.size(), workload.size());
      EXPECT_EQ(batch_stats.succeeded, workload.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok())
            << results[i].status.ToString() << " shards=" << shards;
        ExpectIdenticalAnswer(want[i], results[i].answer, shards, backend,
                              GetParam(), static_cast<int>(i));
      }
      EXPECT_GT(batch_stats.totals.shard_msgs, 0u);

      // Single-query path repeats one query through a warm cluster (the
      // shared cache now holds the bound-tagged rows the shards inserted —
      // answers must not drift).
      QueryStats stats;
      auto again = (*cluster)->Query(workload[0], &stats);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      ExpectIdenticalAnswer(want[0], *again, shards, backend, GetParam(), 0);
      EXPECT_GT(stats.shard_msgs, 0u);
      EXPECT_LE(stats.refined_shards + stats.skipped_shards,
                static_cast<uint64_t>(shards));
      if (want[0].found) {
        EXPECT_GE(stats.refined_shards, 1u);
      }
    }
  }
}

TEST(ServingClusterTest, RejectsBadShardCounts) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 80;
  data.num_pois = 25;
  data.num_users = 30;
  data.seed = 5;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  GpssnDatabase db(MakeSynthetic(data), build);

  ServingOptions zero;
  zero.num_shards = 0;
  EXPECT_TRUE(ServingCluster::Create(db, zero).status().IsInvalidArgument());
}

TEST(ServingClusterTest, InvalidQueriesFailPerQueryNotPerBatch) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 80;
  data.num_pois = 25;
  data.num_users = 30;
  data.seed = 6;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  GpssnDatabase db(MakeSynthetic(data), build);

  ServingOptions options;
  options.num_shards = 2;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok());

  GpssnQuery good;
  good.issuer = 0;
  good.tau = 2;
  good.gamma = 0.05;
  good.theta = 0.05;
  good.radius = 2.0;
  GpssnQuery bad = good;
  bad.issuer = static_cast<UserId>(db.ssn().num_users() + 100);
  GpssnQuery nan_gamma = good;
  nan_gamma.gamma = std::numeric_limits<double>::quiet_NaN();
  GpssnQuery wide = good;
  wide.radius = build.poi_index.r_max * 2.0;

  // The invalid queries fail on their first shard reply and later (stale)
  // replies for them must be dropped without disturbing the good queries.
  std::vector<GpssnQuery> batch{good, bad, good, nan_gamma, wide};
  BatchStats stats;
  auto results = (*cluster)->QueryBatch(batch, &stats);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_TRUE(results[2].status.ok()) << results[2].status.ToString();
  // A failed query reports the shard's own status, message included: the
  // one the single node returns.
  for (size_t i : {1, 3, 4}) {
    const Status single = db.Query(batch[i]).status();
    EXPECT_TRUE(single.IsInvalidArgument()) << single.ToString();
    EXPECT_EQ(results[i].status.ToString(), single.ToString()) << "query " << i;
  }
  EXPECT_EQ(stats.succeeded, 2u);
  EXPECT_EQ(stats.failed, 3u);

  // The cluster stays serviceable after the failure.
  auto after = (*cluster)->Query(good);
  EXPECT_TRUE(after.ok());
}

// A small network whose database keeps a shared distance cache of
// `cache_entries` items, and a workload over it.
SyntheticSsnOptions SmallNetwork(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 150;
  data.num_pois = 50;
  data.num_users = 80;
  data.seed = seed;
  return data;
}

GpssnBuildOptions CachedBuild(size_t cache_entries) {
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.distance_cache_entries = cache_entries;
  return build;
}

std::vector<GpssnQuery> Workload(const GpssnDatabase& db, uint64_t seed,
                                 int size) {
  Rng rng(seed);
  std::vector<GpssnQuery> workload;
  for (int i = 0; i < size; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(2));
    q.gamma = rng.UniformDouble(0.05, 0.3);
    q.theta = rng.UniformDouble(0.05, 0.3);
    q.radius = rng.UniformDouble(1.0, 3.5);
    workload.push_back(q);
  }
  return workload;
}

void ExpectSameAsSingleNode(GpssnDatabase* db,
                            std::span<const GpssnQuery> workload,
                            const std::vector<BatchQueryResult>& results,
                            int shards, const char* path) {
  ASSERT_EQ(results.size(), workload.size()) << path;
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok())
        << path << ": " << results[i].status.ToString();
    auto want = db->Query(workload[i]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectIdenticalAnswer(*want, results[i].answer, shards, path, 0,
                          static_cast<int>(i));
  }
}

TEST(ServingClusterTest, ShardsFillTheDatabaseCache) {
  GpssnDatabase db(MakeSynthetic(SmallNetwork(21)),
                   CachedBuild(size_t{1} << 16));
  const DistanceCache* cache = db.distance_cache();
  ASSERT_NE(cache, nullptr);
  const std::vector<GpssnQuery> workload = Workload(db, 3, 8);

  // One shard gathers what the single node gathers and, in refine wave 1,
  // computes its issuer row with no bound, so that row covers every POI
  // the single node needs: the single node's issuer row must hit.
  ServingOptions options;
  options.num_shards = 1;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::vector<BatchQueryResult> results =
      (*cluster)->QueryBatch(workload);
  EXPECT_GT(cache->GetStats().insertions, 0u)
      << "the shard cached no row in the database's cache";

  // The first single-node query, of an issuer the cluster answered, runs
  // on rows only the shard inserted.
  size_t k = 0;
  while (k < results.size() && !results[k].answer.found) ++k;
  ASSERT_LT(k, results.size()) << "no answer, so no rows to reuse";
  QueryStats stats;
  auto single = db.Query(workload[k], &stats);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ExpectIdenticalAnswer(*single, results[k].answer, 1, "db cache", 21,
                        static_cast<int>(k));
  EXPECT_GT(stats.dist_cache_row_hits, 0u) << stats.ToString();
  ExpectSameAsSingleNode(&db, workload, results, 1, "db cache");
}

// The single node and a cluster's shards run one Gather, so the shards'
// merged POI funnel equals the single node's, query for query.
TEST(ServingClusterTest, ClusterGathersTheSingleNodeCandidates) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 200;
  data.num_pois = 100;
  data.num_users = 150;
  data.seed = 25;
  GpssnDatabase db(MakeSynthetic(data), CachedBuild(0));
  const std::vector<GpssnQuery> workload = Workload(db, 5, 40);
  for (int shards : {1, 3}) {
    ServingOptions options;
    options.num_shards = shards;
    auto cluster = ServingCluster::Create(db, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    const std::vector<BatchQueryResult> results =
        (*cluster)->QueryBatch(workload);
    ASSERT_EQ(results.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      QueryStats want;
      ASSERT_TRUE(db.Query(workload[i], &want).ok());
      const QueryStats& got = results[i].stats;
      EXPECT_EQ(got.pois_seen, want.pois_seen)
          << "shards=" << shards << " query " << i;
      EXPECT_EQ(got.pois_pruned_match, want.pois_pruned_match)
          << "shards=" << shards << " query " << i;
      EXPECT_EQ(got.pois_candidates, want.pois_candidates)
          << "shards=" << shards << " query " << i;
    }
  }
}

TEST(ServingClusterTest, CallerCacheTakesTheShardRows) {
  GpssnDatabase db(MakeSynthetic(SmallNetwork(22)),
                   CachedBuild(size_t{1} << 16));
  const std::vector<GpssnQuery> workload = Workload(db, 4, 8);

  DistanceCache own;
  ServingOptions options;
  options.num_shards = 2;
  options.query.distance_cache = &own;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::vector<BatchQueryResult> results =
      (*cluster)->QueryBatch(workload);
  EXPECT_GT(own.GetStats().insertions, 0u)
      << "the shards did not use the cache they were given";
  const DistanceCache::Stats untouched = db.distance_cache()->GetStats();
  EXPECT_EQ(untouched.hits + untouched.misses + untouched.insertions, 0u)
      << untouched.ToString();
  ExpectSameAsSingleNode(&db, workload, results, 2, "caller cache");
}

TEST(ServingClusterTest, AddPoiInvalidatesRowsTheShardsCached) {
  GpssnDatabase db(MakeSynthetic(SmallNetwork(23)),
                   CachedBuild(size_t{1} << 16));
  const std::vector<GpssnQuery> workload = Workload(db, 5, 8);
  ServingOptions options;
  options.num_shards = 2;

  std::vector<BatchQueryResult> before;
  {
    auto cluster = ServingCluster::Create(db, options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    before = (*cluster)->QueryBatch(workload);
  }  // Maintenance must not overlap an attached cluster.
  ASSERT_GT(db.distance_cache()->GetStats().insertions, 0u);

  // A facility on the edge of a POI in an answer's ball, halfway to the
  // edge's midpoint, with that POI's keywords.
  const GpssnAnswer* answer = nullptr;
  for (const BatchQueryResult& r : before) {
    if (r.status.ok() && r.answer.found) {
      answer = &r.answer;
      break;
    }
  }
  ASSERT_NE(answer, nullptr) << "no answer, so no ball to open a POI in";
  const Poi& inside = db.ssn().poi(answer->pois.front());
  EdgePosition position = inside.position;
  position.t = (position.t + 0.5) / 2.0;
  auto id = db.AddPoi(position, inside.keywords);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::vector<BatchQueryResult> after =
      (*cluster)->QueryBatch(workload);
  ExpectSameAsSingleNode(&db, workload, after, 2, "after AddPoi");
  for (size_t i = 0; i < workload.size(); ++i) {
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), workload[i]);
    ASSERT_EQ(after[i].answer.found, oracle.found) << "query " << i;
    if (oracle.found) {
      EXPECT_NEAR(after[i].answer.max_dist, oracle.max_dist, 1e-9)
          << "query " << i;
    }
  }
}

// The batch executor's workers and the shards race on one small cache.
TEST(ServingClusterTest, ExecutorAndClusterShareTheCacheConcurrently) {
  GpssnDatabase db(MakeSynthetic(SmallNetwork(24)),
                   CachedBuild(kSmallCacheEntries));
  const std::vector<GpssnQuery> workload = Workload(db, 6, 24);

  BatchExecutorOptions exec_options;
  exec_options.num_workers = 2;
  exec_options.query = db.WithDatabaseDefaults(QueryOptions());
  GpssnBatchExecutor executor(&db.poi_index(), &db.social_index(),
                              exec_options);
  ServingOptions options;
  options.num_shards = 2;
  options.shard_num_workers = 2;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  std::vector<BatchQueryResult> batch;
  std::thread batch_thread([&] { batch = executor.ExecuteAll(workload); });
  const std::vector<BatchQueryResult> served =
      (*cluster)->QueryBatch(workload);
  batch_thread.join();
  EXPECT_GT(db.distance_cache()->GetStats().insertions, 0u);
  ExpectSameAsSingleNode(&db, workload, batch, 0, "batch");
  ExpectSameAsSingleNode(&db, workload, served, 2, "cluster");
}

// 20 random networks × 2 backends × shard counts {1, 2, 4, 8}.
INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gpssn::serving
