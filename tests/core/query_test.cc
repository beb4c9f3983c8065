// Integration property tests: the indexed GP-SSN processor must return the
// same optimal answer as the exhaustive brute-force oracle, across random
// networks and the whole query-parameter grid, with and without each
// pruning rule.

#include "core/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/baseline.h"
#include "core/database.h"
#include "core/pruning.h"
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
  for (int rule = 0; rule < 4; ++rule) {
    QueryOptions options;
    switch (rule) {
      case 0: options.pruning.interest_score = false; break;
      case 1: options.pruning.social_distance = false; break;
      case 2: options.pruning.match_score = false; break;
      case 3: options.pruning = PruningFlags{false, false, false}; break;
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
  q.radius = 2.0;
  ASSERT_TRUE(db->Query(q, &stats).ok());
  // NaN thresholds would fail every score comparison.
  q.gamma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.gamma = 0.3;
  q.theta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
  q.theta = 0.3;
  // A raw wire value no metric has.
  q.metric = static_cast<InterestMetric>(3);
  EXPECT_TRUE(db->Query(q, &stats).status().IsInvalidArgument());
}

TEST(QueryValidationTest, RefineCandidatesRejectsOutOfRangeIds) {
  auto db = SmallDatabase(7);
  GpssnProcessor processor(&db->poi_index(), &db->social_index());
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 2;
  q.gamma = 0.1;
  q.theta = 0.1;
  q.radius = 2.0;
  auto refine = [&](const std::vector<PoiId>& centers,
                    const std::vector<std::vector<UserId>>& groups) {
    return processor
        .RefineCandidates(q, QueryOptions(), centers, groups, kInfDistance)
        .status();
  };
  const PoiId num_pois = db->ssn().num_pois();
  const UserId num_users = db->ssn().num_users();
  EXPECT_TRUE(refine({0, num_pois - 1}, {{0, num_users - 1}}).ok());
  EXPECT_TRUE(refine({-1}, {{0, 1}}).IsInvalidArgument());
  EXPECT_TRUE(refine({num_pois}, {{0, 1}}).IsInvalidArgument());
  EXPECT_TRUE(refine({0}, {{0, -1}}).IsInvalidArgument());
  EXPECT_TRUE(refine({0}, {{num_users, 0}}).IsInvalidArgument());
}

// A member whose Lemma 5 bound fails at a center fails every group that
// holds it there. Over the groups {u_q, x_i, f}, i = 1..n, at a center
// where only f's bound exceeds the incumbent, the pair loop bounds u_q,
// x_1 and f in the first group and then skips every other group. Bounding
// group by group would also bound x_2..x_n: n + 2 bounds.
TEST(QueryRefineTest, FailedMemberBoundRejectsEveryGroupHoldingIt) {
  auto db = SmallDatabase(7);
  const SpatialSocialNetwork& ssn = db->ssn();
  GpssnProcessor processor(&db->poi_index(), &db->social_index());
  DijkstraEngine engine(&ssn.road());
  GpssnQuery q;
  q.tau = 3;
  q.gamma = 0.0;
  q.theta = 0.0;  // Every ball matches every member.
  q.radius = 0.5;
  constexpr int kN = 8;
  for (q.issuer = 0; q.issuer < 40; ++q.issuer) {
    // The center nearest the issuer, and the issuer's exact share of any
    // objective there.
    PoiId center = kInvalidPoi;
    double nearest = kInfDistance;
    for (PoiId o = 0; o < ssn.num_pois(); ++o) {
      const double d = engine.PositionToPosition(ssn.user_home(q.issuer),
                                                 ssn.poi(o).position);
      if (d < nearest) {
        nearest = d;
        center = o;
      }
    }
    ASSERT_NE(center, kInvalidPoi);
    const PoiIndex& poi_index = db->poi_index();
    double worst = 0.0;
    for (PoiId o : poi_index.ball_ids(center).first(
             poi_index.BallPrefix(center, q.radius))) {
      worst = std::max(worst,
                       engine.PositionToPosition(ssn.user_home(q.issuer),
                                                 ssn.poi(o).position));
    }
    // f: the user with the largest Lemma 5 bound; x_i: the n smallest.
    auto lb = [&](UserId u) {
      return LbRoadPivotDist(db->social_index().user_road_pivot_dists(u),
                             poi_index.pivot_dists(center));
    };
    std::vector<std::pair<double, UserId>> by_lb;
    for (UserId u = 0; u < ssn.num_users(); ++u) {
      if (u != q.issuer) by_lb.emplace_back(lb(u), u);
    }
    std::sort(by_lb.begin(), by_lb.end());
    const UserId f = by_lb.back().second;
    const double low = std::max({worst, lb(q.issuer), by_lb[kN - 1].first});
    const double high = by_lb.back().first;
    if (!(high > low + 1e-6)) continue;
    std::vector<std::vector<UserId>> groups;
    for (int i = 0; i < kN; ++i) {
      groups.push_back({q.issuer, by_lb[i].second, f});
    }
    QueryStats stats;
    auto refined = processor.RefineCandidates(
        q, QueryOptions(), {center}, groups, (low + high) / 2, &stats);
    ASSERT_TRUE(refined.ok());
    EXPECT_EQ(stats.pair_bounds, 3u) << "issuer " << q.issuer;
    EXPECT_EQ(stats.pairs_examined, 0u);
    // Every group holds f, so no answer may be returned.
    EXPECT_FALSE(refined->answer.found);
    return;
  }
  FAIL() << "no issuer has a center where one bound stands out";
}

void ExpectIdenticalAnswer(const GpssnAnswer& got, const GpssnAnswer& oracle) {
  ASSERT_EQ(got.found, oracle.found);
  EXPECT_EQ(got.users, oracle.users);
  EXPECT_EQ(got.center, oracle.center);
  EXPECT_EQ(got.pois, oracle.pois);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.max_dist),
            std::bit_cast<uint64_t>(oracle.max_dist));
}

// A member whose exact share of a center fails the threshold fails every
// group that holds it there. The road is a line of unit edges at x = -4..4,
// with c1 (topic 0) at x = 1 and c2 (topic 1) at x = -1. The issuer q
// (x = 0, both topics) befriends y (x = 1) and f (x = -3); y befriends
// z (x = 3), and f befriends x_1..x_n (x = -1). y and z hold topic 0, f and
// the x_i topic 1. So the τ = 3 groups are {q, y, z}, {q, y, f} and the n
// groups {q, f, x_i}. At c1 f fails θ, and {q, y, z} is kept at max_dist
// 2. At c2, visited next, f's pivot bound lies below 2, but its exact share
// is 2, which cannot beat the kept answer, so the first {q, f, x_i} group
// to reach the exact stage kills f: two pairs reach it, where rejecting
// group by group took n + 1.
TEST(QueryRefineTest, FailedMemberShareRejectsEveryGroupHoldingIt) {
  constexpr int kN = 6;
  RoadNetworkBuilder road_builder;
  for (int x = -4; x <= 4; ++x) {
    road_builder.AddVertex(Point{static_cast<double>(x), 0.0});
  }
  for (VertexId v = 0; v < 8; ++v) {
    ASSERT_TRUE(road_builder.AddEdge(v, v + 1, 1.0).ok());
  }
  RoadNetwork road = road_builder.Build();
  // The position of the vertex at coordinate x.
  auto at = [](int x) {
    return x < 4 ? EdgePosition{static_cast<EdgeId>(x + 4), 0.0}
                 : EdgePosition{7, 1.0};
  };
  std::vector<Poi> pois(2);
  for (PoiId o = 0; o < 2; ++o) {
    pois[o].id = o;
    pois[o].position = at(o == 0 ? 1 : -1);
    pois[o].location = road.PositionPoint(pois[o].position);
    pois[o].keywords = {static_cast<KeywordId>(o)};
  }
  SocialNetworkBuilder social_builder(/*num_topics=*/2);
  const double both[] = {0.5, 0.5}, first[] = {1.0, 0.0},
               second[] = {0.0, 1.0};
  std::vector<EdgePosition> homes;
  auto add_user = [&](const double* interests, int x) {
    homes.push_back(at(x));
    return *social_builder.AddUser(std::span<const double>(interests, 2));
  };
  const UserId q = add_user(both, 0);
  const UserId y = add_user(first, 1);
  const UserId z = add_user(first, 3);
  const UserId f = add_user(second, -3);
  ASSERT_TRUE(social_builder.AddFriendship(q, y).ok());
  ASSERT_TRUE(social_builder.AddFriendship(y, z).ok());
  ASSERT_TRUE(social_builder.AddFriendship(q, f).ok());
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(social_builder.AddFriendship(f, add_user(second, -1)).ok());
  }
  GpssnBuildOptions build;
  build.num_road_pivots = 2;
  build.num_social_pivots = 2;
  GpssnDatabase db(SpatialSocialNetwork(std::move(road),
                                        social_builder.Build(),
                                        std::move(homes), std::move(pois)),
                   build);
  GpssnQuery query;
  query.issuer = q;
  query.tau = 3;
  query.gamma = 0.0;
  query.theta = 0.3;
  query.radius = 0.5;
  // f passes Lemma 5 at c2.
  ASSERT_LT(LbRoadPivotDist(db.social_index().user_road_pivot_dists(f),
                            db.poi_index().pivot_dists(1)),
            2.0);

  QueryStats stats;
  auto answer = db.Query(query, QueryOptions(), &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(stats.groups_enumerated, static_cast<uint64_t>(kN + 2));
  EXPECT_EQ(stats.pairs_examined, 2u);
  EXPECT_FALSE(stats.truncated);
  const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), query);
  EXPECT_EQ(oracle.users, (std::vector<UserId>{q, y, z}));
  EXPECT_EQ(oracle.max_dist, 2.0);
  ExpectIdenticalAnswer(*answer, oracle);
}

// The Fig. 7 workload's BriCal ×0.05 network, built as the benches build
// it, at Table 3 defaults: issuer 1854's query has ≈23k groups. Rejecting
// exact pairs one group at a time once ran into a budget of 100,000 pairs
// and returned a worse center, flagged truncated.
TEST(QueryRefineTest, DenseIssuerMatchesTheOracleUntruncated) {
  GpssnDatabase db(MakeRealLike(BriCalOptions(0.05, 7)));
  GpssnQuery query;
  query.issuer = 1854;
  QueryStats stats;
  auto answer = db.Query(query, QueryOptions(), &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(stats.truncated);
  const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), query);
  EXPECT_EQ(oracle.center, 119);
  ExpectIdenticalAnswer(*answer, oracle);
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
  // Every POI the descent reaches is either match-pruned or a candidate
  // center, and Refine's road-distance prunes are candidates it skips.
  EXPECT_EQ(stats.pois_pruned_match + stats.pois_candidates, stats.pois_seen);
  EXPECT_LE(stats.pois_pruned_distance, stats.pois_candidates);
  EXPECT_LE(stats.io.page_misses, stats.io.logical_accesses);
  EXPECT_LE(stats.users_pruned_at_index_level + stats.users_seen,
            static_cast<uint64_t>(db->ssn().num_users()) + 1);
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
