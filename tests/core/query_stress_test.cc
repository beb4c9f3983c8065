// Randomized stress testing: the indexed processor must equal the
// exhaustive oracle across randomly drawn networks, build configurations,
// query parameters, and metrics. This is the widest net in the suite.

#include <memory>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/database.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

// Every parameterized test runs seeds [kFirstSeed, kEndSeed).
constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kEndSeed = 9;

class QueryStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryStressTest, RandomInstancesMatchOracle) {
  Rng rng(GetParam() * 7919 + 1);

  for (int instance = 0; instance < 3; ++instance) {
    // Random network shape.
    SyntheticSsnOptions data;
    data.num_road_vertices = 150 + static_cast<int>(rng.NextBounded(250));
    data.num_pois = 60 + static_cast<int>(rng.NextBounded(80));
    data.num_users = 100 + static_cast<int>(rng.NextBounded(150));
    data.num_topics = 8 + static_cast<int>(rng.NextBounded(20));
    data.space_size = 15.0 + rng.UniformDouble(0, 10);
    data.community_size = 30 + static_cast<int>(rng.NextBounded(60));
    data.distribution =
        rng.Bernoulli(0.5) ? Distribution::kUniform : Distribution::kZipf;
    data.seed = rng.Next();

    // Random build configuration.
    GpssnBuildOptions build;
    build.num_road_pivots = 1 + static_cast<int>(rng.NextBounded(5));
    build.num_social_pivots = 1 + static_cast<int>(rng.NextBounded(5));
    build.optimize_pivots = rng.Bernoulli(0.5);
    build.social_index.leaf_cell_size = 8 + static_cast<int>(rng.NextBounded(32));
    build.social_index.fanout = 3 + static_cast<int>(rng.NextBounded(6));
    build.poi_index.rtree.max_entries = 8 + static_cast<int>(rng.NextBounded(32));
    build.poi_index.r_min = 0.3;
    build.poi_index.r_max = 4.5;
    build.seed = rng.Next();

    GpssnDatabase db(MakeSynthetic(data), build);

    for (int trial = 0; trial < 4; ++trial) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
      q.tau = 2 + static_cast<int>(rng.NextBounded(3));
      q.gamma = rng.UniformDouble(0.05, 0.6);
      q.theta = rng.UniformDouble(0.05, 0.6);
      q.radius = rng.UniformDouble(0.4, 4.0);
      q.metric = rng.Bernoulli(0.25) ? InterestMetric::kJaccard
                                     : InterestMetric::kDotProduct;
      if (q.metric == InterestMetric::kJaccard) {
        q.gamma = rng.UniformDouble(0.02, 0.3);
      }
      auto got = db.Query(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
      ASSERT_EQ(got->found, oracle.found)
          << "instance=" << instance << " trial=" << trial
          << " issuer=" << q.issuer << " tau=" << q.tau
          << " gamma=" << q.gamma << " theta=" << q.theta
          << " r=" << q.radius
          << " metric=" << static_cast<int>(q.metric);
      if (oracle.found) {
        ASSERT_NEAR(got->max_dist, oracle.max_dist, 1e-9)
            << "instance=" << instance << " trial=" << trial
            << " issuer=" << q.issuer;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryStressTest,
                         ::testing::Range<uint64_t>(kFirstSeed, kEndSeed));

// Builds one random small database for the top-k stress tests.
std::unique_ptr<GpssnDatabase> RandomSmallDb(Rng* rng) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 120 + static_cast<int>(rng->NextBounded(130));
  data.num_pois = 40 + static_cast<int>(rng->NextBounded(50));
  data.num_users = 80 + static_cast<int>(rng->NextBounded(70));
  data.num_topics = 8 + static_cast<int>(rng->NextBounded(12));
  data.space_size = 12.0 + rng->UniformDouble(0, 8);
  data.community_size = 20 + static_cast<int>(rng->NextBounded(40));
  data.distribution =
      rng->Bernoulli(0.5) ? Distribution::kUniform : Distribution::kZipf;
  data.seed = rng->Next();
  GpssnBuildOptions build;
  build.num_road_pivots = 1 + static_cast<int>(rng->NextBounded(4));
  build.num_social_pivots = 1 + static_cast<int>(rng->NextBounded(4));
  build.social_index.leaf_cell_size = 8 + static_cast<int>(rng->NextBounded(24));
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.seed = rng->Next();
  return std::make_unique<GpssnDatabase>(MakeSynthetic(data), build);
}

GpssnQuery RandomQuery(const GpssnDatabase& db, Rng* rng) {
  GpssnQuery q;
  q.issuer = static_cast<UserId>(rng->NextBounded(db.ssn().num_users()));
  q.tau = 2 + static_cast<int>(rng->NextBounded(3));
  q.gamma = rng->UniformDouble(0.05, 0.6);
  q.theta = rng->UniformDouble(0.05, 0.6);
  q.radius = rng->UniformDouble(0.4, 4.0);
  return q;
}

// ExecuteTopK with k > 1 under randomized inputs: answers must be sorted
// by ascending max_dist, pairwise distinct as (S, center) pairs, and the
// head must agree with the single-answer path.
TEST_P(QueryStressTest, TopKAnswersSortedDistinctAndHeadConsistent) {
  Rng rng(GetParam() * 15485863 + 11);
  for (int instance = 0; instance < 2; ++instance) {
    auto db = RandomSmallDb(&rng);
    for (int trial = 0; trial < 3; ++trial) {
      const GpssnQuery q = RandomQuery(*db, &rng);
      const int k = 2 + static_cast<int>(rng.NextBounded(3));

      auto topk = db->QueryTopK(q, k, QueryOptions{});
      ASSERT_TRUE(topk.ok()) << topk.status().ToString();
      auto single = db->Query(q);
      ASSERT_TRUE(single.ok()) << single.status().ToString();

      EXPECT_LE(topk->size(), static_cast<size_t>(k));
      ASSERT_EQ(!topk->empty(), single->found)
          << "instance=" << instance << " trial=" << trial
          << " issuer=" << q.issuer;
      for (size_t i = 0; i < topk->size(); ++i) {
        const GpssnAnswer& a = (*topk)[i];
        EXPECT_TRUE(a.found);
        if (i + 1 < topk->size()) {
          EXPECT_LE(a.max_dist, (*topk)[i + 1].max_dist + 1e-12)
              << "answers not ascending at " << i;
        }
        for (size_t j = i + 1; j < topk->size(); ++j) {
          EXPECT_FALSE(a.center == (*topk)[j].center &&
                       a.users == (*topk)[j].users)
              << "duplicate (S, center) pair at " << i << "," << j;
        }
      }
      if (single->found) {
        ASSERT_NEAR(topk->front().max_dist, single->max_dist, 1e-9)
            << "top-1 disagrees with the single-answer path; instance="
            << instance << " trial=" << trial << " issuer=" << q.issuer;
      }
    }
  }
}

}  // namespace
}  // namespace gpssn
