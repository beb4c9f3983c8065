// Tests for the Jaccard interest metric (the paper's named future-work
// extension): score properties, bound soundness, and oracle equivalence of
// full queries under the alternative metric.

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/database.h"
#include "core/pruning.h"
#include "core/scores.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

TEST(WeightedJaccardTest, BasicProperties) {
  const std::vector<double> a = {0.5, 0.0, 1.0};
  const std::vector<double> b = {0.5, 0.5, 0.0};
  // num = 0.5 + 0 + 0 = 0.5; den = 0.5 + 0.5 + 1.0 = 2.0.
  EXPECT_NEAR(WeightedJaccard(a, b), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b), WeightedJaccard(b, a));
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, a), 1.0);
  const std::vector<double> zero = {0, 0, 0};
  EXPECT_DOUBLE_EQ(WeightedJaccard(zero, zero), 1.0);  // Convention.
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, zero), 0.0);
}

TEST(WeightedJaccardTest, RangeProperty) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> a(10), b(10);
    for (int f = 0; f < 10; ++f) {
      a[f] = rng.Bernoulli(0.5) ? rng.UniformDouble() : 0.0;
      b[f] = rng.Bernoulli(0.5) ? rng.UniformDouble() : 0.0;
    }
    const double j = WeightedJaccard(a, b);
    ASSERT_GE(j, 0.0);
    ASSERT_LE(j, 1.0);
  }
}

TEST(UserSimilarityTest, DispatchesOnMetric) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(UserSimilarity(InterestMetric::kDotProduct, a, b), 0.5);
  EXPECT_NEAR(UserSimilarity(InterestMetric::kJaccard, a, b), 0.5 / 1.5,
              1e-12);
}

TEST(UbJaccardBoxTest, UpperBoundsEveryBoxMember) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const int d = 8;
    std::vector<double> q(d), lb(d), ub(d);
    for (int f = 0; f < d; ++f) {
      q[f] = rng.Bernoulli(0.4) ? rng.UniformDouble() : 0.0;
      const double x = rng.UniformDouble();
      const double y = rng.UniformDouble();
      lb[f] = std::min(x, y);
      ub[f] = std::max(x, y);
    }
    const double bound = UbJaccardBox(q, lb, ub);
    for (int probe = 0; probe < 10; ++probe) {
      std::vector<double> x(d);
      for (int f = 0; f < d; ++f) x[f] = rng.UniformDouble(lb[f], ub[f]);
      ASSERT_GE(bound, WeightedJaccard(q, x));
    }
  }
}

std::unique_ptr<GpssnDatabase> SmallDatabase(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 250;
  data.num_pois = 100;
  data.num_users = 200;
  data.num_topics = 15;
  data.space_size = 20.0;
  data.community_size = 50;
  data.seed = seed;
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  build.seed = seed;
  return std::make_unique<GpssnDatabase>(MakeSynthetic(data), build);
}

class JaccardOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardOracleTest, MatchesBruteForceUnderJaccard) {
  auto db = SmallDatabase(GetParam());
  for (int i = 0; i < 6; ++i) {
    GpssnQuery q;
    q.issuer = (i * 37) % db->ssn().num_users();
    q.tau = 3;
    q.metric = InterestMetric::kJaccard;
    q.gamma = 0.15;  // Jaccard scores live in [0, 1].
    q.theta = 0.3;
    q.radius = 2.0;
    auto got = db->Query(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const GpssnAnswer oracle = BruteForceGpssn(db->ssn(), q);
    ASSERT_EQ(got->found, oracle.found) << "issuer " << q.issuer;
    if (oracle.found) {
      EXPECT_NEAR(got->max_dist, oracle.max_dist, 1e-9)
          << "issuer " << q.issuer;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardOracleTest,
                         ::testing::Values(31, 41, 59));

TEST(HammingTest, SimilarityBasics) {
  const std::vector<double> a = {0.5, 0.0, 1.0, 0.0};
  const std::vector<double> b = {0.9, 0.2, 0.0, 0.0};
  // Supports {0,2} vs {0,1}: mismatches at topics 1 and 2 -> 1 - 2/4.
  EXPECT_DOUBLE_EQ(HammingSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(HammingSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(HammingSimilarity(a, b), HammingSimilarity(b, a));
}

TEST(HammingTest, BoxBoundIsSound) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const int d = 8;
    std::vector<double> q(d), lb(d), ub(d);
    for (int f = 0; f < d; ++f) {
      q[f] = rng.Bernoulli(0.4) ? rng.UniformDouble() : 0.0;
      const double x = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble();
      const double y = rng.Bernoulli(0.3) ? 0.0 : rng.UniformDouble();
      lb[f] = std::min(x, y);
      ub[f] = std::max(x, y);
    }
    const double bound = UbHammingBox(q, lb, ub);
    for (int probe = 0; probe < 10; ++probe) {
      std::vector<double> x(d);
      for (int f = 0; f < d; ++f) x[f] = rng.UniformDouble(lb[f], ub[f]);
      ASSERT_GE(bound, HammingSimilarity(q, x));
    }
  }
}

TEST(HammingTest, OracleEquivalenceUnderHamming) {
  auto db = SmallDatabase(67);
  for (int i = 0; i < 4; ++i) {
    GpssnQuery q;
    q.issuer = (i * 53) % db->ssn().num_users();
    q.tau = 3;
    q.metric = InterestMetric::kHamming;
    q.gamma = 0.75;  // At most 25% of topics may differ in support.
    q.theta = 0.25;
    q.radius = 2.0;
    auto got = db->Query(q);
    ASSERT_TRUE(got.ok());
    const GpssnAnswer oracle = BruteForceGpssn(db->ssn(), q);
    ASSERT_EQ(got->found, oracle.found) << "issuer " << q.issuer;
    if (oracle.found) {
      EXPECT_NEAR(got->max_dist, oracle.max_dist, 1e-9);
    }
  }
}

TEST(JaccardPruningTest, NodePruningImpliesMemberPruning) {
  auto db = SmallDatabase(11);
  GpssnQuery q;
  q.issuer = 9;
  q.tau = 3;
  q.metric = InterestMetric::kJaccard;
  q.gamma = 0.2;
  const QueryUserContext ctx(q, db->social_index());
  const SocialIndex& index = db->social_index();
  for (SNodeId id = 0; id < index.num_nodes(); ++id) {
    const SocialIndexNode& node = index.node(id);
    if (!node.is_leaf() || !PruneSocialNodeInterest(ctx, node)) continue;
    for (UserId u : node.users) {
      ASSERT_TRUE(
          PruneUserInterest(ctx, db->ssn().social().Interests(u)))
          << "node pruning must imply member pruning";
    }
  }
}

TEST(JaccardQueryTest, AnswerSatisfiesJaccardPredicate) {
  auto db = SmallDatabase(13);
  GpssnQuery q;
  q.issuer = 3;
  q.tau = 3;
  q.metric = InterestMetric::kJaccard;
  q.gamma = 0.1;
  auto answer = db->Query(q);
  ASSERT_TRUE(answer.ok());
  if (!answer->found) GTEST_SKIP();
  const SocialNetwork& social = db->ssn().social();
  for (size_t i = 0; i < answer->users.size(); ++i) {
    for (size_t j = i + 1; j < answer->users.size(); ++j) {
      EXPECT_GE(WeightedJaccard(social.Interests(answer->users[i]),
                                social.Interests(answer->users[j])),
                q.gamma);
    }
  }
}

}  // namespace
}  // namespace gpssn
