// GpssnBatchExecutor tests: batch answers must equal serial answers
// query-for-query, deadline-expired queries must report DeadlineExceeded
// without poisoning the pooled processors, aggregated BatchStats must equal
// the sum of the per-query stats, and degenerate shapes (0-query batch,
// 1-worker pool, a worker count below 1) must be well-behaved.

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/executor.h"
#include "roadnet/distance_cache.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

GpssnDatabase* SharedDb() {
  static GpssnDatabase* db = []() {
    SyntheticSsnOptions data;
    data.num_road_vertices = 400;
    data.num_pois = 200;
    data.num_users = 400;
    data.num_topics = 20;
    data.seed = 99;
    GpssnBuildOptions build;
    build.social_index.leaf_cell_size = 16;
    return new GpssnDatabase(MakeSynthetic(data), build);
  }();
  return db;
}

std::vector<GpssnQuery> MakeWorkload(int count) {
  std::vector<GpssnQuery> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    GpssnQuery q;
    q.issuer = (i * 53 + 7) % SharedDb()->ssn().num_users();
    q.tau = 2 + (i % 3);
    q.gamma = 0.1 + 0.1 * (i % 4);
    q.theta = 0.1 + 0.1 * (i % 3);
    queries.push_back(q);
  }
  return queries;
}

void ExpectRowEq(const char* name, uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << name;
}
void ExpectRowEq(const char* name, bool got, bool want) {
  EXPECT_EQ(got, want) << name;
}
// Merge order differs between lanes and submission order, so the float
// sums may differ in the last ulp.
void ExpectRowEq(const char* name, double got, double want) {
  EXPECT_NEAR(got, want, 1e-9) << name;
}
void ExpectRowEq(const char* name, const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.page_misses, want.page_misses) << name;
  EXPECT_EQ(got.logical_accesses, want.logical_accesses) << name;
}

// Every row of the batch totals equals the merge of the per-query stats.
void ExpectTotalsArePerQuerySums(const BatchStats& stats,
                                 const std::vector<BatchQueryResult>& batch) {
  QueryStats expected;
  for (const BatchQueryResult& r : batch) expected.MergeFrom(r.stats);
#define GPSSN_TEST_ROW(type, name, merge) \
  ExpectRowEq(#name, stats.totals.name, expected.name);
  GPSSN_QUERY_STATS(GPSSN_TEST_ROW)
#undef GPSSN_TEST_ROW
}

void ExpectSameAnswer(const BatchQueryResult& got, const GpssnAnswer& want,
                      int index) {
  ASSERT_TRUE(got.status.ok()) << "query " << index << ": "
                               << got.status.ToString();
  ASSERT_EQ(got.answer.found, want.found) << "query " << index;
  if (want.found) {
    EXPECT_EQ(got.answer.users, want.users) << "query " << index;
    EXPECT_EQ(got.answer.center, want.center) << "query " << index;
    EXPECT_DOUBLE_EQ(got.answer.max_dist, want.max_dist) << "query " << index;
  }
}

TEST(BatchExecutorTest, BatchResultsEqualSerialResultsQueryForQuery) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(24);

  std::vector<GpssnAnswer> serial;
  for (const GpssnQuery& q : queries) {
    auto answer = db->Query(q);
    ASSERT_TRUE(answer.ok());
    serial.push_back(*std::move(answer));
  }

  BatchExecutorOptions options;
  options.num_workers = 4;
  BatchStats stats;
  std::vector<BatchQueryResult> batch = db->QueryBatch(queries, options, &stats);

  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.succeeded, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Submission order is preserved.
    ASSERT_EQ(batch[i].query.issuer, queries[i].issuer);
    ExpectSameAnswer(batch[i], serial[i], static_cast<int>(i));
  }
}

TEST(BatchExecutorTest, SharedDistanceCacheKeepsBatchAnswersExact) {
  // 8 workers hammering one shared DistanceCache (the TSAN preset runs
  // this test): answers must stay identical to the serial no-cache run,
  // and a repeated workload must produce row-level cache hits.
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(32);

  std::vector<GpssnAnswer> serial;
  for (const GpssnQuery& q : queries) {
    auto answer = db->Query(q);
    ASSERT_TRUE(answer.ok());
    serial.push_back(*std::move(answer));
  }

  DistanceCache cache;
  BatchExecutorOptions options;
  options.num_workers = 8;
  options.query.distance_cache = &cache;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);

  BatchStats cold_stats;
  std::vector<BatchQueryResult> cold = executor.ExecuteAll(queries, &cold_stats);
  ASSERT_EQ(cold.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(cold[i], serial[i], static_cast<int>(i));
  }

  // Same workload again: warm cache, identical answers, row hits > 0.
  BatchStats warm_stats;
  std::vector<BatchQueryResult> warm = executor.ExecuteAll(queries, &warm_stats);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameAnswer(warm[i], serial[i], static_cast<int>(i));
  }
  EXPECT_GT(warm_stats.totals.dist_cache_row_hits, 0u);
  // Every row the cold run computed hits in the warm run (entries only get
  // stronger), so the warm run evaluates strictly fewer distances.
  EXPECT_LT(warm_stats.totals.exact_distance_evals,
            cold_stats.totals.exact_distance_evals);
  const auto cache_stats = cache.GetStats();
  EXPECT_GT(cache_stats.insertions, 0u);
  EXPECT_GT(cache_stats.hits, 0u);
}

TEST(BatchExecutorTest, AggregatedStatsEqualPerQuerySums) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(16);

  BatchExecutorOptions options;
  options.num_workers = 3;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);
  BatchStats stats;
  std::vector<BatchQueryResult> batch = executor.ExecuteAll(queries, &stats);
  ASSERT_EQ(batch.size(), queries.size());

  uint64_t found = 0;
  double latency_sum = 0.0, latency_max = 0.0;
  for (const BatchQueryResult& r : batch) {
    if (r.status.ok() && r.answer.found) ++found;
    latency_sum += r.latency_seconds;
    latency_max = std::max(latency_max, r.latency_seconds);
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, options.num_workers);
  }
  ExpectTotalsArePerQuerySums(stats, batch);
  EXPECT_EQ(stats.answers_found, found);
  EXPECT_NEAR(stats.latency_mean_seconds,
              latency_sum / static_cast<double>(queries.size()), 1e-9);
  EXPECT_DOUBLE_EQ(stats.latency_max_seconds, latency_max);
  EXPECT_GT(stats.throughput_qps, 0.0);
  EXPECT_LE(stats.latency_p50_seconds, stats.latency_p95_seconds);
  EXPECT_LE(stats.latency_p95_seconds, stats.latency_p99_seconds);
  EXPECT_LE(stats.latency_p99_seconds, stats.latency_max_seconds);
}

TEST(BatchExecutorTest, ClusterTotalsEqualPerQuerySums) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(16);

  serving::ServingOptions options;
  options.num_shards = 3;
  options.max_inflight = 4;
  auto cluster = serving::ServingCluster::Create(*db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  BatchStats stats;
  std::vector<BatchQueryResult> batch = (*cluster)->QueryBatch(queries, &stats);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.succeeded, queries.size());
  EXPECT_GT(stats.totals.shard_msgs, 0u);
  ExpectTotalsArePerQuerySums(stats, batch);
}

TEST(BatchExecutorTest, DeadlineExpiredQueryDoesNotPoisonThePool) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(8);

  BatchExecutorOptions options;
  options.num_workers = 2;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);

  // Batch 1: a query with an already-elapsed deadline among normal ones.
  const size_t doomed = executor.Submit(queries[0], /*deadline_seconds=*/1e-9);
  for (size_t i = 1; i < queries.size(); ++i) executor.Submit(queries[i]);
  BatchStats stats;
  std::vector<BatchQueryResult> batch = executor.Wait(&stats);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_TRUE(batch[doomed].status.IsDeadlineExceeded())
      << batch[doomed].status.ToString();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.succeeded, queries.size() - 1);
  for (size_t i = 1; i < queries.size(); ++i) {
    auto want = db->Query(queries[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(batch[i], *want, static_cast<int>(i));
  }

  // Batch 2 on the SAME executor: the pooled processors (including the one
  // that abandoned the doomed query mid-descent) must answer correctly.
  batch = executor.ExecuteAll(queries, &stats);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.succeeded, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto want = db->Query(queries[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(batch[i], *want, static_cast<int>(i));
  }
}

TEST(BatchExecutorTest, EmptyBatchIsWellBehaved) {
  GpssnDatabase* db = SharedDb();
  BatchExecutorOptions options;
  options.num_workers = 2;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);
  BatchStats stats;
  std::vector<BatchQueryResult> results = executor.Wait(&stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.throughput_qps, 0.0);
  EXPECT_EQ(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.latency_p99_seconds, 0.0);
  // And again through the convenience path.
  results = executor.ExecuteAll({}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.queries, 0u);
}

TEST(BatchExecutorTest, SingleWorkerPoolMatchesSerial) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(10);
  BatchExecutorOptions options;
  options.num_workers = 1;
  BatchStats stats;
  std::vector<BatchQueryResult> batch = db->QueryBatch(queries, options, &stats);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(stats.succeeded, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto want = db->Query(queries[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(batch[i], *want, static_cast<int>(i));
    EXPECT_EQ(batch[i].worker, 0);
  }
}

TEST(BatchExecutorTest, NonPositiveWorkerCountRunsOneWorker) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(6);
  for (const int workers : {0, -3}) {
    BatchExecutorOptions options;
    options.num_workers = workers;
    BatchStats stats;
    std::vector<BatchQueryResult> batch =
        db->QueryBatch(queries, options, &stats);
    ASSERT_EQ(batch.size(), queries.size()) << "num_workers=" << workers;
    EXPECT_EQ(stats.succeeded, queries.size()) << "num_workers=" << workers;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto want = db->Query(queries[i]);
      ASSERT_TRUE(want.ok());
      ExpectSameAnswer(batch[i], *want, static_cast<int>(i));
      EXPECT_EQ(batch[i].worker, 0) << "num_workers=" << workers;
    }
  }
}

TEST(BatchExecutorTest, InvalidQueriesReportInvalidArgumentPerSlot) {
  GpssnDatabase* db = SharedDb();
  std::vector<GpssnQuery> queries = MakeWorkload(4);
  queries[2].issuer = -5;  // Malformed: must fail alone, not sink the batch.
  BatchExecutorOptions options;
  options.num_workers = 2;
  BatchStats stats;
  std::vector<BatchQueryResult> batch = db->QueryBatch(queries, options, &stats);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_TRUE(batch[2].status.IsInvalidArgument());
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.succeeded, queries.size() - 1);
}

TEST(BatchExecutorTest, CancelAllYieldsOnlyOkOrCancelledStatuses) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(30);
  BatchExecutorOptions options;
  options.num_workers = 2;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);
  for (const GpssnQuery& q : queries) executor.Submit(q);
  executor.CancelAll();  // Races with the workers by design.
  BatchStats stats;
  std::vector<BatchQueryResult> batch = executor.Wait(&stats);
  ASSERT_EQ(batch.size(), queries.size());
  for (const BatchQueryResult& r : batch) {
    EXPECT_TRUE(r.status.ok() || r.status.IsCancelled())
        << r.status.ToString();
  }
  EXPECT_EQ(stats.succeeded + stats.cancelled, queries.size());

  // The cancel flag resets at Wait: the next batch completes normally.
  batch = executor.ExecuteAll(std::span(queries.data(), 4), &stats);
  EXPECT_EQ(stats.succeeded, 4u);
}

TEST(BatchExecutorTest, CallbacksFireExactlyOncePerQuery) {
  GpssnDatabase* db = SharedDb();
  const std::vector<GpssnQuery> queries = MakeWorkload(12);
  BatchExecutorOptions options;
  options.num_workers = 4;
  GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(), options);
  std::atomic<int> fired{0};
  for (const GpssnQuery& q : queries) {
    executor.Submit(q, /*deadline_seconds=*/0.0,
                    [&fired](const BatchQueryResult& r) {
                      EXPECT_TRUE(r.status.ok());
                      fired.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(test counter; read after Wait)
                    });
  }
  std::vector<BatchQueryResult> batch = executor.Wait();
  EXPECT_EQ(fired.load(), static_cast<int>(queries.size()));
  EXPECT_EQ(batch.size(), queries.size());
}

}  // namespace
}  // namespace gpssn
