// Tests for dynamic user-interest updates: after any sequence of profile
// changes, I_S's interest boxes must stay exact and queries must match the
// brute-force oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/baseline.h"
#include "core/database.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SyntheticSsnOptions SmallData(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 250;
  data.num_pois = 80;
  data.num_users = 150;
  data.num_topics = 12;
  data.space_size = 20.0;
  data.seed = seed;
  return data;
}

std::vector<double> RandomInterests(int d, Rng* rng) {
  std::vector<double> w(d, 0.0);
  for (double& p : w) {
    if (rng->Bernoulli(0.25)) p = rng->UniformDouble();
  }
  return w;
}

TEST(DynamicUserTest, RejectsBadUpdates) {
  GpssnDatabase db(MakeSynthetic(SmallData(1)));
  const std::vector<double> wrong_dim = {0.5};
  EXPECT_TRUE(db.UpdateUserInterests(0, wrong_dim).IsInvalidArgument());
  const std::vector<double> out_of_range(12, 1.5);
  EXPECT_TRUE(db.UpdateUserInterests(0, out_of_range).IsInvalidArgument());
  // NaN compares false against both ends of [0, 1].
  const auto row = db.ssn().social().Interests(0);
  const std::vector<double> before(row.begin(), row.end());
  std::vector<double> with_nan(12, 0.5);
  with_nan[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db.UpdateUserInterests(0, with_nan).IsInvalidArgument());
  const auto after = db.ssn().social().Interests(0);
  EXPECT_EQ(std::vector<double>(after.begin(), after.end()), before);
  std::vector<double> ok(12, 0.5);
  EXPECT_TRUE(db.UpdateUserInterests(-1, ok).IsInvalidArgument());
  EXPECT_TRUE(db.UpdateUserInterests(0, ok).ok());
}

// Every leaf box must equal a dense min/max over its members' rows bit for
// bit (no slack left behind, no member outside), though an update rebuilds
// it from the members' runs. The updates add and drop topics, and some
// empty a row or fill all of it.
TEST(DynamicUserTest, BoxesStayExactAfterUpdates) {
  GpssnBuildOptions build;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(2)), build);
  Rng rng(5);
  for (int round = 0; round < 60; ++round) {
    const UserId u = rng.NextBounded(db.ssn().num_users());
    std::vector<double> w = RandomInterests(12, &rng);
    if (round % 10 == 3) w.assign(12, 0.0);
    if (round % 10 == 7) w.assign(12, rng.UniformDouble(0.1, 1.0));
    ASSERT_TRUE(db.UpdateUserInterests(u, w).ok());
  }
  const SocialIndex& index = db.social_index();
  const SocialNetwork& social = db.ssn().social();
  for (SNodeId id = 0; id < index.num_nodes(); ++id) {
    const SocialIndexNode& node = index.node(id);
    if (!node.is_leaf()) continue;
    for (int f = 0; f < 12; ++f) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (UserId u : node.users) {
        lo = std::min(lo, social.Interests(u)[f]);
        hi = std::max(hi, social.Interests(u)[f]);
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(node.lb_w[f]),
                std::bit_cast<uint64_t>(lo))
          << "node " << id << " topic " << f;
      EXPECT_EQ(std::bit_cast<uint64_t>(node.ub_w[f]),
                std::bit_cast<uint64_t>(hi))
          << "node " << id << " topic " << f;
    }
  }
}

TEST(DynamicUserTest, QueriesStayExactAfterUpdates) {
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(3)), build);
  GpssnQuery q;
  q.issuer = 9;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.0;
  Rng rng(11);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) {
      const UserId u = rng.NextBounded(db.ssn().num_users());
      ASSERT_TRUE(db.UpdateUserInterests(u, RandomInterests(12, &rng)).ok());
    }
    auto got = db.Query(q);
    ASSERT_TRUE(got.ok());
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
    ASSERT_EQ(got->found, oracle.found) << "round " << round;
    if (oracle.found) {
      EXPECT_NEAR(got->max_dist, oracle.max_dist, 1e-9) << "round " << round;
    }
  }
}

TEST(DynamicUserTest, UpdateCanCreateAndDestroyAnswers) {
  GpssnBuildOptions build;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(4)), build);
  GpssnQuery q;
  q.issuer = 5;
  q.tau = 2;
  q.gamma = 0.9;  // Nearly impossible pairwise score...
  q.theta = 0.0;
  q.radius = 2.0;
  // ...unless we force the issuer and one friend to identical strong
  // profiles.
  const auto friends = db.ssn().social().Friends(q.issuer);
  ASSERT_FALSE(friends.empty());
  std::vector<double> strong(12, 0.0);
  strong[0] = strong[1] = 1.0;  // Dot product = 2.0 >= 0.9.
  ASSERT_TRUE(db.UpdateUserInterests(q.issuer, strong).ok());
  ASSERT_TRUE(db.UpdateUserInterests(friends[0], strong).ok());
  auto answer = db.Query(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->found);
  // Now destroy the friendship's compatibility.
  const std::vector<double> zero(12, 0.0);
  ASSERT_TRUE(db.UpdateUserInterests(friends[0], zero).ok());
  // Any other qualifying partner would need score >= 0.9 with `strong`.
  const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
  auto after = db.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->found, oracle.found);
}

}  // namespace
}  // namespace gpssn
