// Integration property tests: the indexed GP-SSN processor must return the
// same optimal answer as the exhaustive brute-force oracle, across random
// networks and the whole query-parameter grid, with and without each
// pruning rule.

#include "core/query.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/baseline.h"
#include "core/database.h"
#include "core/scores.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

std::unique_ptr<GpssnDatabase> SmallDatabase(uint64_t seed,
                                             int users = 250,
                                             int pois = 120) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 300;
  data.num_pois = pois;
  data.num_users = users;
  data.num_topics = 15;
  data.space_size = 20.0;
  data.community_size = 60;
  data.seed = seed;
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  build.poi_index.r_min = 0.5;
  build.poi_index.r_max = 4.0;
  build.seed = seed;
  return std::make_unique<GpssnDatabase>(MakeSynthetic(data), build);
}

void ExpectSameAnswer(const GpssnAnswer& got, const GpssnAnswer& oracle,
                      const std::string& context) {
  ASSERT_EQ(got.found, oracle.found) << context;
  if (!oracle.found) return;
  // Multiple optimal pairs may tie; the objective value must agree.
  EXPECT_NEAR(got.max_dist, oracle.max_dist, 1e-9) << context;
}

class QueryOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryOracleTest, MatchesBruteForceAcrossIssuers) {
  auto db = SmallDatabase(GetParam());
  for (int i = 0; i < 8; ++i) {
    GpssnQuery q;
    q.issuer = (i * 31) % db->ssn().num_users();
    q.tau = 3;
    q.gamma = 0.3;
    q.theta = 0.3;
    q.radius = 2.0;
    QueryStats stats;
    auto got = db->Query(q, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const GpssnAnswer oracle = BruteForceGpssn(db->ssn(), q);
    ExpectSameAnswer(*got, oracle,
                     "seed=" + std::to_string(GetParam()) +
                         " issuer=" + std::to_string(q.issuer));
    if (got->found) {
      // The returned pair must satisfy every predicate of Definition 5.
      EXPECT_EQ(static_cast<int>(got->users.size()), q.tau);
      EXPECT_TRUE(std::binary_search(got->users.begin(), got->users.end(),
                                     q.issuer));
    }
  }
}

TEST_P(QueryOracleTest, MatchesBruteForceAcrossParameters) {
  auto db = SmallDatabase(GetParam() + 50);
  const UserId issuer = 17 % db->ssn().num_users();
  struct Case {
    int tau;
    double gamma, theta, radius;
  };
  const Case cases[] = {
      {2, 0.2, 0.2, 1.0}, {3, 0.3, 0.3, 2.0}, {4, 0.3, 0.2, 3.0},
      {5, 0.2, 0.3, 2.0}, {3, 0.5, 0.5, 0.5}, {3, 0.7, 0.7, 4.0},
  };
  for (const Case& c : cases) {
    GpssnQuery q;
    q.issuer = issuer;
    q.tau = c.tau;
    q.gamma = c.gamma;
    q.theta = c.theta;
    q.radius = c.radius;
    auto got = db->Query(q);
    ASSERT_TRUE(got.ok());
    const GpssnAnswer oracle = BruteForceGpssn(db->ssn(), q);
    ExpectSameAnswer(
        *got, oracle,
        "tau=" + std::to_string(c.tau) + " gamma=" + std::to_string(c.gamma) +
            " theta=" + std::to_string(c.theta) +
            " r=" + std::to_string(c.radius));
  }
}

TEST_P(QueryOracleTest, DisablingPruningNeverChangesAnswers) {
  auto db = SmallDatabase(GetParam() + 99, /*users=*/180, /*pois=*/90);
  GpssnQuery q;
  q.issuer = 11 % db->ssn().num_users();
  q.tau = 3;
  q.gamma = 0.3;
  q.theta = 0.3;
  q.radius = 2.0;
  QueryOptions all_on;
  auto reference = db->Query(q, all_on, nullptr);
  ASSERT_TRUE(reference.ok());
  for (int rule = 0; rule < 5; ++rule) {
    QueryOptions options;
    switch (rule) {
      case 0: options.pruning.interest_score = false; break;
      case 1: options.pruning.social_distance = false; break;
      case 2: options.pruning.match_score = false; break;
      case 3: options.pruning.road_distance = false; break;
      case 4:
        options.pruning = PruningFlags{false, false, false, false};
        break;
    }
    auto got = db->Query(q, options, nullptr);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->found, reference->found) << "rule " << rule;
    if (reference->found) {
      EXPECT_NEAR(got->max_dist, reference->max_dist, 1e-9) << "rule " << rule;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryOracleTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(QueryValidationTest, RejectsMalformedQueries) {
  auto db = SmallDatabase(7);
  QueryStats stats;
  GpssnQuery q;
  q.issuer = -1;
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.issuer = db->ssn().num_users();
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.issuer = 0;
  q.tau = 0;
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.tau = 3;
  q.gamma = -0.5;
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.gamma = 0.3;
  q.radius = 100.0;  // Outside the index envelope [r_min, r_max].
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.radius = 0.0001;
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  // NaN compares false against both envelope ends.
  q.radius = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
}

TEST(QueryAnswerTest, AnswerSatisfiesAllPredicates) {
  auto db = SmallDatabase(13);
  const SpatialSocialNetwork& ssn = db->ssn();
  GpssnQuery q;
  q.issuer = 5;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.5;
  auto got = db->Query(q);
  ASSERT_TRUE(got.ok());
  if (!got->found) GTEST_SKIP() << "no answer for this instance";

  // Predicate 1-2: issuer in S, S connected.
  ASSERT_TRUE(std::binary_search(got->users.begin(), got->users.end(),
                                 q.issuer));
  // Predicate 3: pairwise interest scores.
  for (size_t i = 0; i < got->users.size(); ++i) {
    for (size_t j = i + 1; j < got->users.size(); ++j) {
      EXPECT_GE(InterestScore(ssn.social().Interests(got->users[i]),
                              ssn.social().Interests(got->users[j])),
                q.gamma);
    }
  }
  // Predicate 4: pairwise POI distance <= 2r.
  DijkstraEngine engine(&ssn.road());
  for (size_t i = 0; i < got->pois.size(); ++i) {
    for (size_t j = i + 1; j < got->pois.size(); ++j) {
      EXPECT_LE(engine.PositionToPosition(ssn.poi(got->pois[i]).position,
                                          ssn.poi(got->pois[j]).position),
                2 * q.radius + 1e-9);
    }
  }
  // Predicate 5: matching scores.
  const auto kws = UnionKeywords(ssn, got->pois);
  for (UserId u : got->users) {
    EXPECT_GE(MatchScore(ssn.social().Interests(u), kws), q.theta);
  }
  // Predicate 6 consistency: reported objective equals recomputed maxdist.
  double maxdist = 0;
  for (UserId u : got->users) {
    for (PoiId o : got->pois) {
      maxdist = std::max(maxdist,
                         engine.PositionToPosition(ssn.user_home(u),
                                                   ssn.poi(o).position));
    }
  }
  EXPECT_NEAR(maxdist, got->max_dist, 1e-9);
}

TEST(QueryStatsTest, CountersAreCoherent) {
  auto db = SmallDatabase(17);
  GpssnQuery q;
  q.issuer = 3;
  q.tau = 3;
  QueryStats stats;
  auto got = db->Query(q, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(stats.cpu_seconds, 0.0);
  EXPECT_GT(stats.social_nodes_visited, 0u);
  EXPECT_GT(stats.road_nodes_visited, 0u);
  EXPECT_LE(stats.users_pruned_interest + stats.users_pruned_distance,
            stats.users_seen);
  EXPECT_LE(stats.users_candidates, stats.users_seen + 1);
  EXPECT_LE(stats.io.page_misses, stats.io.logical_accesses);
  EXPECT_LE(stats.users_pruned_at_index_level + stats.users_seen,
            static_cast<uint64_t>(db->ssn().num_users()) + 1);
}

TEST(QuerySamplingTest, SubsetSamplingReturnsFeasibleAnswer) {
  auto db = SmallDatabase(19);
  GpssnQuery q;
  q.issuer = 7;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.0;
  QueryOptions exact;
  auto reference = db->Query(q, exact, nullptr);
  ASSERT_TRUE(reference.ok());
  QueryOptions sampling;
  sampling.subset_sampling = true;
  sampling.subset_samples = 3000;
  auto got = db->Query(q, sampling, nullptr);
  ASSERT_TRUE(got.ok());
  if (reference->found && got->found) {
    // Sampling may be suboptimal but never better than the exact optimum.
    EXPECT_GE(got->max_dist + 1e-9, reference->max_dist);
  }
}

TEST(QueryDeterminismTest, RepeatedQueriesAgree) {
  auto db = SmallDatabase(23);
  GpssnQuery q;
  q.issuer = 2;
  q.tau = 3;
  auto a = db->Query(q);
  auto b = db->Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->found, b->found);
  if (a->found) {
    EXPECT_EQ(a->users, b->users);
    EXPECT_EQ(a->center, b->center);
    EXPECT_DOUBLE_EQ(a->max_dist, b->max_dist);
  }
}

}  // namespace
}  // namespace gpssn
