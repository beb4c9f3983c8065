// Tests for the top-k GP-SSN extension: k best (S, R) pairs, verified
// against a brute-force top-k oracle.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/baseline.h"
#include "core/database.h"
#include "core/scores.h"
#include "roadnet/shortest_path.h"
#include "core/refinement.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

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

// Brute-force top-k objectives: evaluate EVERY qualifying (group, center)
// pair and return the k smallest maxdist values.
std::vector<double> OracleTopKObjectives(const SpatialSocialNetwork& ssn,
                                         const GpssnQuery& q, int k) {
  std::vector<UserId> all_users(ssn.num_users());
  for (UserId u = 0; u < ssn.num_users(); ++u) all_users[u] = u;
  std::vector<std::vector<UserId>> groups;
  EnumerateGroups(ssn.social(), q, all_users, 5000000, &groups);
  DijkstraEngine engine(&ssn.road());
  PoiLocator locator(&ssn.road(), &ssn.pois());

  std::vector<UserId> members;
  for (const auto& g : groups) members.insert(members.end(), g.begin(), g.end());
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::vector<std::vector<double>> dist(ssn.num_users());
  for (UserId u : members) {
    engine.RunFromPosition(ssn.user_home(u));
    dist[u].resize(ssn.num_pois());
    for (PoiId o = 0; o < ssn.num_pois(); ++o) {
      dist[u][o] = std::min(engine.DistanceToPosition(ssn.poi(o).position),
                            SameEdgeDistance(ssn.road(), ssn.user_home(u),
                                             ssn.poi(o).position));
    }
  }

  std::vector<double> objectives;
  for (PoiId c = 0; c < ssn.num_pois(); ++c) {
    auto ball = locator.Ball(ssn.poi(c).position, q.radius, &engine);
    if (ball.empty()) continue;
    const auto kws = UnionKeywords(ssn, ball);
    for (const auto& group : groups) {
      bool match = true;
      for (UserId u : group) {
        if (MatchScore(ssn.social().Interests(u), kws) < q.theta) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      double obj = 0;
      for (UserId u : group) {
        for (PoiId o : ball) obj = std::max(obj, dist[u][o]);
      }
      if (std::isfinite(obj)) objectives.push_back(obj);
    }
  }
  std::sort(objectives.begin(), objectives.end());
  if (static_cast<int>(objectives.size()) > k) objectives.resize(k);
  return objectives;
}

class TopKOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKOracleTest, MatchesBruteForceObjectives) {
  auto db = SmallDatabase(GetParam());
  GpssnQuery q;
  q.issuer = 13 % db->ssn().num_users();
  q.tau = 3;
  q.gamma = 0.3;
  q.theta = 0.3;
  q.radius = 2.0;
  for (int k : {1, 3, 5}) {
    auto got = db->QueryTopK(q, k, QueryOptions{});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const auto oracle = OracleTopKObjectives(db->ssn(), q, k);
    ASSERT_EQ(got->size(), oracle.size()) << "k=" << k;
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR((*got)[i].max_dist, oracle[i], 1e-9)
          << "k=" << k << " rank " << i;
    }
    // Ascending order and distinct pairs.
    std::set<std::pair<std::vector<UserId>, PoiId>> seen;
    for (size_t i = 0; i < got->size(); ++i) {
      if (i > 0) {
        EXPECT_GE((*got)[i].max_dist + 1e-12, (*got)[i - 1].max_dist);
      }
      EXPECT_TRUE(seen.insert({(*got)[i].users, (*got)[i].center}).second)
          << "duplicate (S, center) pair";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKOracleTest, ::testing::Values(3, 7, 19));

TEST(TopKTest, KOneAgreesWithSingleAnswer) {
  auto db = SmallDatabase(5);
  GpssnQuery q;
  q.issuer = 2;
  q.tau = 3;
  auto single = db->Query(q);
  auto top1 = db->QueryTopK(q, 1, QueryOptions{});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(top1.ok());
  ASSERT_EQ(single->found, !top1->empty());
  if (single->found) {
    EXPECT_NEAR(single->max_dist, top1->front().max_dist, 1e-9);
  }
}

TEST(TopKTest, InvalidKRejected) {
  auto db = SmallDatabase(6);
  GpssnQuery q;
  q.issuer = 1;
  EXPECT_TRUE(db->QueryTopK(q, 0, QueryOptions{}).status().IsInvalidArgument());
  q.issuer = -3;
  EXPECT_TRUE(db->QueryTopK(q, 2, QueryOptions{}).status().IsInvalidArgument());
  // τ beyond the user count is malformed for every k, as for Query.
  q.issuer = 1;
  q.tau = db->ssn().num_users() + 1;
  EXPECT_TRUE(db->QueryTopK(q, 2, QueryOptions{}).status().IsInvalidArgument());
}

TEST(TopKTest, LargerKNeverShrinksResults) {
  auto db = SmallDatabase(8);
  GpssnQuery q;
  q.issuer = 4;
  q.tau = 3;
  auto top2 = db->QueryTopK(q, 2, QueryOptions{});
  auto top6 = db->QueryTopK(q, 6, QueryOptions{});
  ASSERT_TRUE(top2.ok());
  ASSERT_TRUE(top6.ok());
  EXPECT_LE(top2->size(), top6->size());
  for (size_t i = 0; i < top2->size(); ++i) {
    EXPECT_NEAR((*top2)[i].max_dist, (*top6)[i].max_dist, 1e-9);
  }
}

}  // namespace
}  // namespace gpssn
