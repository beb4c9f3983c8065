// Tests for the Baseline competitor: the exhaustive oracle and the
// sampling-based cost estimator of Section 6.3.

#include "core/baseline.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scores.h"
#include "roadnet/shortest_path.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SpatialSocialNetwork SmallNetwork(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 200;
  data.num_pois = 80;
  data.num_users = 120;
  data.num_topics = 12;
  data.space_size = 15.0;
  data.community_size = 40;
  data.seed = seed;
  return MakeSynthetic(data);
}

TEST(Log10BinomialTest, KnownValues) {
  EXPECT_NEAR(Log10Binomial(10, 0), 0.0, 1e-9);           // C = 1.
  EXPECT_NEAR(Log10Binomial(10, 10), 0.0, 1e-9);          // C = 1.
  EXPECT_NEAR(Log10Binomial(10, 2), std::log10(45.0), 1e-9);
  EXPECT_NEAR(Log10Binomial(52, 5), std::log10(2598960.0), 1e-6);
  EXPECT_EQ(Log10Binomial(5, 7), -std::numeric_limits<double>::infinity());
  // The paper's scale: C(40000-1, 4) is astronomically large.
  EXPECT_GT(Log10Binomial(39999, 4), 16.0);
}

TEST(BruteForceTest, AnswerSatisfiesAllPredicates) {
  const SpatialSocialNetwork ssn = SmallNetwork(3);
  GpssnQuery q;
  q.issuer = 4;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.0;
  QueryStats stats;
  const GpssnAnswer answer = BruteForceGpssn(ssn, q, 5000000, &stats);
  EXPECT_FALSE(stats.truncated);
  if (!answer.found) GTEST_SKIP() << "instance has no answer";
  EXPECT_EQ(static_cast<int>(answer.users.size()), q.tau);
  EXPECT_TRUE(std::binary_search(answer.users.begin(), answer.users.end(),
                                 q.issuer));
  for (size_t i = 0; i < answer.users.size(); ++i) {
    for (size_t j = i + 1; j < answer.users.size(); ++j) {
      EXPECT_GE(InterestScore(ssn.social().Interests(answer.users[i]),
                              ssn.social().Interests(answer.users[j])),
                q.gamma);
    }
  }
  const auto kws = UnionKeywords(ssn, answer.pois);
  for (UserId u : answer.users) {
    EXPECT_GE(MatchScore(ssn.social().Interests(u), kws), q.theta);
  }
  EXPECT_TRUE(std::isfinite(answer.max_dist));
}

TEST(BruteForceTest, NoAnswerWhenGammaImpossible) {
  const SpatialSocialNetwork ssn = SmallNetwork(5);
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 3;
  q.gamma = 1e9;  // Unsatisfiable.
  const GpssnAnswer answer = BruteForceGpssn(ssn, q);
  EXPECT_FALSE(answer.found);
}

TEST(BruteForceTest, TauOneIsNearestMatchingBall) {
  const SpatialSocialNetwork ssn = SmallNetwork(7);
  GpssnQuery q;
  q.issuer = 9;
  q.tau = 1;
  q.gamma = 0.0;
  q.theta = 0.0;
  q.radius = 1.0;
  const GpssnAnswer answer = BruteForceGpssn(ssn, q);
  ASSERT_TRUE(answer.found);
  EXPECT_EQ(answer.users, std::vector<UserId>{9});
  // With theta = 0, the optimum is bounded by the distance to the nearest
  // POI's own ball.
  DijkstraEngine engine(&ssn.road());
  double nearest = kInfDistance;
  for (PoiId o = 0; o < ssn.num_pois(); ++o) {
    nearest = std::min(nearest,
                       engine.PositionToPosition(ssn.user_home(q.issuer),
                                                 ssn.poi(o).position));
  }
  EXPECT_GE(answer.max_dist + 1e-9, nearest);
}

TEST(EstimateBaselineTest, ProducesAstronomicalCostAtScale) {
  const SpatialSocialNetwork ssn = SmallNetwork(9);
  GpssnQuery q;
  q.issuer = 1;
  q.tau = 5;
  const BaselineEstimate est =
      EstimateBaselineCost(ssn, q, /*samples=*/20, 3).value();
  // C(119, 4) * 80 pairs ~ 1.1e9; per-pair cost is > 1 I/O, so the total
  // must be huge.
  EXPECT_GT(est.log10_candidate_pairs, 8.0);
  EXPECT_GT(est.avg_pair_ios, 1.0);
  EXPECT_GT(est.estimated_total_ios, 1e8);
  EXPECT_GT(est.avg_pair_cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(est.estimated_total_days,
                   est.estimated_total_cpu_seconds / 86400.0);
}

TEST(EstimateBaselineTest, MorePairsForLargerTau) {
  const SpatialSocialNetwork ssn = SmallNetwork(11);
  GpssnQuery small, large;
  small.issuer = large.issuer = 0;
  small.tau = 2;
  large.tau = 6;
  EXPECT_LT(EstimateBaselineCost(ssn, small, 5, 1)->log10_candidate_pairs,
            EstimateBaselineCost(ssn, large, 5, 1)->log10_candidate_pairs);
}

TEST(EstimateBaselineTest, RejectsQueriesItCannotSample) {
  const SpatialSocialNetwork ssn = SmallNetwork(13);
  const int m = ssn.num_users();
  GpssnQuery q;
  q.tau = 3;
  for (UserId issuer : {-100000000, -1, m}) {
    q.issuer = issuer;
    EXPECT_TRUE(EstimateBaselineCost(ssn, q, 2, 1).status().IsInvalidArgument())
        << "issuer " << issuer;
  }
  q.issuer = 0;
  for (int tau : {0, -3, m + 1}) {
    q.tau = tau;
    EXPECT_TRUE(EstimateBaselineCost(ssn, q, 2, 1).status().IsInvalidArgument())
        << "tau " << tau;
  }
  // τ = |users|: every user is in the one sampled group.
  q.tau = m;
  EXPECT_TRUE(EstimateBaselineCost(ssn, q, 2, 1).ok());

  // A network with users and no POI has no ball to center.
  std::vector<EdgePosition> homes(m);
  for (UserId u = 0; u < m; ++u) homes[u] = ssn.user_home(u);
  const SpatialSocialNetwork no_pois(RoadNetwork(ssn.road()),
                                     SocialNetwork(ssn.social()),
                                     std::move(homes), {});
  q.tau = 3;
  EXPECT_TRUE(
      EstimateBaselineCost(no_pois, q, 2, 1).status().IsInvalidArgument());
}

}  // namespace
}  // namespace gpssn
