// Sharded-serving differential harness: on randomized synthetic networks,
// a ServingCluster must return BYTE-IDENTICAL answers to the single-node
// GpssnDatabase::Query path — same found flag, users, center, POIs, and
// bitwise-equal objective — at every shard count {1, 2, 4, 8} and under
// both distance backends (built-in Dijkstra and CH). This is the
// acceptance gate of the discovery-rank merge protocol (DESIGN.md §12):
// shard answers carry (center_worst, group_index) and the coordinator's
// lexicographic merge reproduces the single-node serial loop's
// first-encountered winner exactly.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/database.h"
#include "roadnet/distance_backend.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace gpssn::serving {
namespace {

class ShardedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

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

  GpssnDatabase db(MakeSynthetic(data), build);
  const auto ch_backend = MakeChBackend(&db.ssn().road(), &db.ssn().pois());

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
    if (use_ch) single.distance_backend = ch_backend.get();

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
      // shard distance caches now hold bound-tagged rows — answers must
      // not drift).
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

TEST(ServingClusterTest, RejectsSubsetSamplingAndBadShardCounts) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 80;
  data.num_pois = 25;
  data.num_users = 30;
  data.seed = 5;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  GpssnDatabase db(MakeSynthetic(data), build);

  ServingOptions sampling;
  sampling.query.subset_sampling = true;
  EXPECT_TRUE(ServingCluster::Create(db, sampling)
                  .status()
                  .IsInvalidArgument());

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

// 20 random networks × 2 backends × shard counts {1, 2, 4, 8}.
INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gpssn::serving
