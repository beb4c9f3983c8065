// Serving concurrency hammer (runs under the TSAN preset via
// scripts/check.sh): drives the coordinator, its worker pool and its
// reply mailbox through their racy corners — CancelAll landing
// mid-gather, deadlines expiring during refine, and shard stages
// answering after the coordinator already completed (and abandoned) their
// query. The invariants are liveness (every batch returns; nothing
// deadlocks when the coordinator keeps more stages outstanding than the
// pool has workers) and sane terminal statuses; answers are checked only
// for queries that completed OK.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace gpssn::serving {
namespace {

GpssnDatabase MakeDb(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 120;
  data.num_pois = 40;
  data.num_users = 60;
  data.seed = seed;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  return GpssnDatabase(MakeSynthetic(data), build);
}

std::vector<GpssnQuery> MakeWorkload(const GpssnDatabase& db, uint64_t seed,
                                     int count) {
  Rng rng(seed);
  std::vector<GpssnQuery> workload;
  for (int i = 0; i < count; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.5);
    q.radius = rng.UniformDouble(0.5, 3.5);
    workload.push_back(q);
  }
  return workload;
}

TEST(ServingStressTest, CancelAllMidBatchTerminatesEveryQuery) {
  GpssnDatabase db = MakeDb(21);
  ServingOptions options;
  options.num_shards = 4;
  options.max_inflight = 6;
  options.shard_num_workers = 2;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok());
  const std::vector<GpssnQuery> workload = MakeWorkload(db, 99, 24);

  for (int round = 0; round < 3; ++round) {
    // Fire CancelAll from another thread while the event loop is mid-
    // gather/refine; every query must still reach a terminal status.
    std::atomic<bool> go{false};
    std::thread canceller([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      (*cluster)->CancelAll();
    });
    go.store(true, std::memory_order_release);
    BatchStats stats;
    auto results = (*cluster)->QueryBatch(workload, &stats);
    canceller.join();
    ASSERT_EQ(results.size(), workload.size());
    for (const auto& r : results) {
      EXPECT_TRUE(r.status.ok() || r.status.IsCancelled())
          << r.status.ToString();
    }
    EXPECT_EQ(stats.succeeded + stats.cancelled, workload.size());

    // The cancel flag is cleared at the next batch: everything succeeds.
    auto after = (*cluster)->QueryBatch(MakeWorkload(db, 7, 4), &stats);
    for (const auto& r : after) {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
}

TEST(ServingStressTest, TightDeadlinesExpireCleanlyDuringRefine) {
  GpssnDatabase db = MakeDb(22);
  ServingOptions options;
  options.num_shards = 4;
  options.max_inflight = 8;
  // Tight enough that many queries expire inside gather/refine on any
  // machine, loose enough that some may finish — both paths must be clean.
  options.default_deadline_seconds = 2e-4;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok());

  for (int round = 0; round < 4; ++round) {
    BatchStats stats;
    auto results =
        (*cluster)->QueryBatch(MakeWorkload(db, 31 + round, 16), &stats);
    ASSERT_EQ(results.size(), 16u);
    for (const auto& r : results) {
      EXPECT_TRUE(r.status.ok() || r.status.IsDeadlineExceeded())
          << r.status.ToString();
    }
    EXPECT_EQ(stats.succeeded + stats.deadline_exceeded, 16u);
  }

  // A deadline-free batch on the same (warm, previously-expired) cluster
  // must fully succeed: no poisoned shard state survives an expiry.
  ServingOptions clean = options;
  clean.default_deadline_seconds = 0.0;
  auto cluster2 = ServingCluster::Create(db, clean);
  ASSERT_TRUE(cluster2.ok());
  BatchStats stats;
  auto results = (*cluster2)->QueryBatch(MakeWorkload(db, 77, 8), &stats);
  EXPECT_EQ(stats.succeeded, 8u);
}

TEST(ServingStressTest, StaleRepliesAfterErrorShortCircuitAreDropped) {
  GpssnDatabase db = MakeDb(23);
  ServingOptions options;
  options.num_shards = 4;
  options.max_inflight = 6;
  options.shard_num_workers = 2;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok());

  // Invalid queries complete on their FIRST error reply; the other three
  // shards answer a query the coordinator already finished. Interleaving
  // many of them with valid queries hammers the stale-drop path while the
  // pipeline is full.
  std::vector<GpssnQuery> workload = MakeWorkload(db, 13, 20);
  for (size_t i = 0; i < workload.size(); i += 3) {
    workload[i].issuer = static_cast<UserId>(db.ssn().num_users() + 1 + i);
  }
  for (int round = 0; round < 3; ++round) {
    BatchStats stats;
    auto results = (*cluster)->QueryBatch(workload, &stats);
    ASSERT_EQ(results.size(), workload.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_TRUE(results[i].status.IsInvalidArgument())
            << results[i].status.ToString();
      } else {
        EXPECT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      }
    }
  }
}

TEST(ServingStressTest, WideInflightWindowOnOneShardCompletes) {
  // 256 queries in flight on one single-worker shard: far more stages
  // than the pool can run at once wait in its queue while its worker
  // replies into the coordinator's mailbox. Both must go through.
  GpssnDatabase db = MakeDb(25);
  const std::vector<GpssnQuery> workload = MakeWorkload(db, 55, 300);
  ServingOptions options;
  options.num_shards = 1;
  options.max_inflight = 256;
  auto cluster = ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok());
  BatchStats stats;
  auto results = (*cluster)->QueryBatch(workload, &stats);
  ASSERT_EQ(results.size(), workload.size());
  EXPECT_EQ(stats.succeeded, workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto want = db.Query(workload[i]);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_EQ(results[i].answer.found, want->found) << "query " << i;
    EXPECT_EQ(results[i].answer.users, want->users) << "query " << i;
    EXPECT_EQ(results[i].answer.center, want->center) << "query " << i;
    EXPECT_EQ(results[i].answer.pois, want->pois) << "query " << i;
    EXPECT_EQ(results[i].answer.max_dist, want->max_dist) << "query " << i;
  }

  options.default_deadline_seconds = 1e-4;
  auto tight = ServingCluster::Create(db, options);
  ASSERT_TRUE(tight.ok());
  results = (*tight)->QueryBatch(workload, &stats);
  ASSERT_EQ(results.size(), workload.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok() || r.status.IsDeadlineExceeded())
        << r.status.ToString();
  }
  EXPECT_EQ(stats.succeeded + stats.deadline_exceeded, workload.size());
}

TEST(ServingStressTest, ClusterTeardownWithPendingWorkIsClean) {
  GpssnDatabase db = MakeDb(24);
  for (int round = 0; round < 4; ++round) {
    ServingOptions options;
    options.num_shards = 3;
    options.shard_num_workers = 2;
    options.default_deadline_seconds = round % 2 == 0 ? 1e-4 : 0.0;
    auto cluster = ServingCluster::Create(db, options);
    ASSERT_TRUE(cluster.ok());
    (void)(*cluster)->QueryBatch(MakeWorkload(db, 41 + round, 6));
    // Stale stages of failed queries may still be queued: the destructor
    // runs them, and their replies land in a mailbox that is still alive,
    // before the workers join (TSAN checks the shutdown ordering).
  }
}

}  // namespace
}  // namespace gpssn::serving
