// Differential correctness harness: the property-based oracle behind the
// pruning rules (Lemmas 1-9). On ≥ 20 randomized synthetic networks —
// varying seed, τ, γ, θ, r, and ALL THREE InterestMetric values — the
// indexed GpssnProcessor must return exactly the oracle's feasibility
// verdict and objective max_dist. Any divergence is a soundness bug in a
// pruning rule, a bound, or the δ-cut fallback. A second suite repeats the
// comparison on dense social graphs under both social kernels, and a third
// pins a network where only Refine's δ cut removes the answers.

#include <string>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/database.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, OptimizedMatchesBaselineOracle) {
  Rng rng(GetParam() * 6007 + 13);

  // One random network + build configuration per seed.
  SyntheticSsnOptions data;
  data.num_road_vertices = 100 + static_cast<int>(rng.NextBounded(120));
  data.num_pois = 40 + static_cast<int>(rng.NextBounded(50));
  data.num_users = 60 + static_cast<int>(rng.NextBounded(80));
  data.num_topics = 8 + static_cast<int>(rng.NextBounded(12));
  data.space_size = 12.0 + rng.UniformDouble(0, 8);
  data.community_size = 20 + static_cast<int>(rng.NextBounded(40));
  data.distribution =
      rng.Bernoulli(0.5) ? Distribution::kUniform : Distribution::kZipf;
  data.seed = rng.Next();

  GpssnBuildOptions build;
  build.num_road_pivots = 1 + static_cast<int>(rng.NextBounded(5));
  build.num_social_pivots = 1 + static_cast<int>(rng.NextBounded(5));
  build.optimize_pivots = rng.Bernoulli(0.5);
  build.social_index.leaf_cell_size = 8 + static_cast<int>(rng.NextBounded(24));
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.seed = rng.Next();

  GpssnDatabase db(MakeSynthetic(data), build);

  const InterestMetric kMetrics[] = {InterestMetric::kDotProduct,
                                     InterestMetric::kJaccard,
                                     InterestMetric::kHamming};
  for (InterestMetric metric : kMetrics) {
    for (int trial = 0; trial < 2; ++trial) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
      q.tau = 2 + static_cast<int>(rng.NextBounded(3));
      q.theta = rng.UniformDouble(0.05, 0.6);
      q.radius = rng.UniformDouble(0.4, 4.0);
      q.metric = metric;
      // γ ranges matched to each metric's score distribution so both
      // feasible and infeasible instances occur.
      switch (metric) {
        case InterestMetric::kDotProduct:
          q.gamma = rng.UniformDouble(0.05, 0.6);
          break;
        case InterestMetric::kJaccard:
          q.gamma = rng.UniformDouble(0.02, 0.3);
          break;
        case InterestMetric::kHamming:
          q.gamma = rng.UniformDouble(0.4, 0.9);
          break;
      }

      auto got = db.Query(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
      ASSERT_EQ(got->found, oracle.found)
          << "seed=" << GetParam() << " metric=" << static_cast<int>(q.metric)
          << " trial=" << trial << " issuer=" << q.issuer << " tau=" << q.tau
          << " gamma=" << q.gamma << " theta=" << q.theta << " r=" << q.radius;
      if (oracle.found) {
        ASSERT_NEAR(got->max_dist, oracle.max_dist, 1e-9)
            << "seed=" << GetParam() << " metric="
            << static_cast<int>(q.metric) << " trial=" << trial
            << " issuer=" << q.issuer;
      }
    }
  }
}

// 20 random networks × 3 metrics × 2 queries = 120 oracle comparisons.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

// Dense social graphs (average degree ≈ 30, GowCol's regime) through
// Execute, under both social kernels: default pruning runs Corollary 2
// over the SocialScratch; with interest pruning off the sparse kernels
// run. Sizes keep the oracle cheap and the max_groups cap idle.
class DenseDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseDifferentialTest, BothSocialKernelsMatchOracle) {
  Rng rng(GetParam() * 7919 + 5);
  RealLikeSsnOptions data;
  data.name = "dense";
  data.num_users = 90;
  data.social_avg_degree = 30.0;
  data.power_law_exponent = 2.3;
  data.num_road_vertices = 150;
  data.road_avg_degree = 2.4;
  data.space_size = 14.0;
  data.num_pois = 45;
  data.num_topics = 10;
  data.community_size = 30;
  data.seed = rng.Next();

  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 12;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.seed = rng.Next();

  GpssnDatabase db(MakeRealLike(data), build);

  const InterestMetric kMetrics[] = {InterestMetric::kDotProduct,
                                     InterestMetric::kJaccard,
                                     InterestMetric::kHamming};
  for (InterestMetric metric : kMetrics) {
    for (int trial = 0; trial < 3; ++trial) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
      q.tau = 2 + static_cast<int>(rng.NextBounded(2));
      q.theta = rng.UniformDouble(0.2, 1.0);
      q.radius = rng.UniformDouble(0.5, 3.0);
      q.metric = metric;
      switch (metric) {
        case InterestMetric::kDotProduct:
          q.gamma = rng.UniformDouble(0.2, 1.2);
          break;
        case InterestMetric::kJaccard:
          q.gamma = rng.UniformDouble(0.1, 0.6);
          break;
        case InterestMetric::kHamming:
          q.gamma = rng.UniformDouble(0.6, 0.95);
          break;
      }
      const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);

      for (bool interest_pruning : {true, false}) {
        QueryOptions options;
        options.pruning.interest_score = interest_pruning;
        QueryStats stats;
        auto got = db.Query(q, options, &stats);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const std::string where =
            "seed=" + std::to_string(GetParam()) +
            " metric=" + std::to_string(static_cast<int>(metric)) +
            " trial=" + std::to_string(trial) +
            " interest_pruning=" + std::to_string(interest_pruning);
        EXPECT_FALSE(stats.truncated) << where;
        // Refine bounds each (member, center) at most once, so the count
        // fits in candidates × centers however many groups share a member.
        EXPECT_LE(stats.pair_bounds,
                  stats.users_candidates * stats.pois_candidates)
            << where;
        ASSERT_EQ(got->found, oracle.found) << where;
        if (oracle.found) {
          ASSERT_NEAR(got->max_dist, oracle.max_dist, 1e-9) << where;
        }
      }
    }
  }
}

// 6 dense networks × 3 metrics × 3 queries × 2 kernels.
INSTANTIATE_TEST_SUITE_P(Seeds, DenseDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

// A small sparse network with wide radius and threshold ranges: many
// queries have no answer, and many answers lie far from the centers the
// issuer reaches first. Every one matches the oracle.
TEST(SmallNetworkDifferentialTest, RandomQueriesMatchOracle) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 120;
  data.num_pois = 40;
  data.num_users = 60;
  data.seed = 25;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  GpssnDatabase db(MakeSynthetic(data), build);

  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.5);
    q.radius = rng.UniformDouble(0.5, 3.5);
    auto got = db.Query(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
    ASSERT_EQ(got->found, oracle.found) << "query " << i;
    if (oracle.found) {
      ASSERT_NEAR(got->max_dist, oracle.max_dist, 1e-9) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace gpssn
