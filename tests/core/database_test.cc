// Tests for the GpssnDatabase facade: build pipeline, query plumbing, and
// determinism.

#include "core/database.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ssn/dataset.h"
#include "ssn/serialize.h"

namespace gpssn {
namespace {

SyntheticSsnOptions MediumData(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 800;
  data.num_pois = 400;
  data.num_users = 900;
  data.num_topics = 40;
  data.seed = seed;
  return data;
}

TEST(DatabaseTest, CheckPivotCountsNeedsRoomForThePivots) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 64;
  data.num_pois = 10;
  data.num_users = 12;
  data.seed = 3;
  const SpatialSocialNetwork ssn = MakeSynthetic(data);
  GpssnBuildOptions build;
  EXPECT_TRUE(CheckPivotCounts(ssn, build).ok());
  build.num_social_pivots = ssn.num_users();
  build.num_road_pivots = ssn.road().num_vertices();
  EXPECT_TRUE(CheckPivotCounts(ssn, build).ok());
  for (const auto& [road, social] :
       {std::pair{0, 5}, std::pair{5, 0}, std::pair{-1, 5},
        std::pair{ssn.road().num_vertices() + 1, 5},
        std::pair{5, ssn.num_users() + 1}}) {
    build.num_road_pivots = road;
    build.num_social_pivots = social;
    EXPECT_TRUE(CheckPivotCounts(ssn, build).IsInvalidArgument())
        << road << " road, " << social << " social pivots";
  }

  // A network file with no users loads, and cannot be indexed.
  std::vector<EdgePosition> no_homes;
  const SpatialSocialNetwork no_users(RoadNetwork(ssn.road()),
                                      SocialNetworkBuilder(4).Build(),
                                      no_homes, {});
  const std::string path =
      std::string(::testing::TempDir()) + "/no_users.gpssn";
  ASSERT_TRUE(SaveSsn(no_users, path).ok());
  const auto loaded = LoadSsn(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(CheckPivotCounts(*loaded, GpssnBuildOptions{})
                  .IsInvalidArgument());
}

TEST(DatabaseTest, BuildsAllComponents) {
  GpssnBuildOptions build;
  build.num_road_pivots = 4;
  build.num_social_pivots = 3;
  const GpssnDatabase db(MakeSynthetic(MediumData(1)), build);
  EXPECT_EQ(db.road_pivots().num_pivots(), 4);
  EXPECT_EQ(db.social_pivots().num_pivots(), 3);
  EXPECT_GT(db.poi_index().tree().num_nodes(), 1);
  EXPECT_GT(db.social_index().num_nodes(), 1);
  EXPECT_EQ(db.social_index().node(db.social_index().root()).subtree_users,
            900);
}

TEST(DatabaseTest, QueriesRunWithDefaults) {
  GpssnDatabase db(MakeSynthetic(MediumData(2)));
  GpssnQuery q;
  q.issuer = 10;
  q.tau = 3;
  QueryStats stats;
  auto answer = db.Query(q, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(stats.cpu_seconds, 0.0);
}

TEST(DatabaseTest, RandomPivotModeWorks) {
  GpssnBuildOptions build;
  build.optimize_pivots = false;
  GpssnDatabase db(MakeSynthetic(MediumData(3)), build);
  GpssnQuery q;
  q.issuer = 5;
  q.tau = 2;
  EXPECT_TRUE(db.Query(q).ok());
}

TEST(DatabaseTest, SameSeedSameAnswers) {
  GpssnBuildOptions build;
  build.seed = 44;
  GpssnDatabase a(MakeSynthetic(MediumData(4)), build);
  GpssnDatabase b(MakeSynthetic(MediumData(4)), build);
  for (UserId issuer : {1, 100, 500}) {
    GpssnQuery q;
    q.issuer = issuer;
    q.tau = 3;
    auto ra = a.Query(q);
    auto rb = b.Query(q);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->found, rb->found);
    if (ra->found) {
      EXPECT_EQ(ra->users, rb->users);
      EXPECT_DOUBLE_EQ(ra->max_dist, rb->max_dist);
    }
  }
}

TEST(DatabaseTest, HandlesRealLikeDatasets) {
  GpssnDatabase db(MakeRealLike(BriCalOptions(/*scale=*/0.03, /*seed=*/5)));
  int found = 0;
  for (UserId issuer = 0; issuer < 10; ++issuer) {
    GpssnQuery q;
    q.issuer = issuer * 7;
    q.tau = 3;
    auto answer = db.Query(q);
    ASSERT_TRUE(answer.ok());
    if (answer->found) ++found;
  }
  EXPECT_GT(found, 0) << "real-like datasets should usually have answers";
}

}  // namespace
}  // namespace gpssn
