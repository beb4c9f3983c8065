// Tests for the GpssnDatabase facade: build pipeline, query plumbing, and
// determinism.

#include "core/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
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

// Appends the bytes of `value` to `bytes`; a double goes in as its bits.
template <typename T>
void AppendBytes(std::string* bytes, T value) {
  if constexpr (std::is_same_v<T, double>) {
    AppendBytes(bytes, std::bit_cast<uint64_t>(value));
  } else {
    bytes->append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
}

// Checksum lines of what the build's road searches leave behind.
struct SearchChecksums {
  std::string balls;   // Every POI's B(o, r_max): ids and distance bits.
  std::string masks;   // Every POI's sup_K mask.
  std::string pivots;  // The road pivots and their distance tables.
  std::string rows;    // A fixed set of CH rows: user homes to POIs.
  std::string added;   // Balls and masks after three AddPoi calls.
};

SearchChecksums BuildSearchChecksums(Distribution distribution) {
  SyntheticSsnOptions data;  // Table 3's sizes at scale 0.02.
  data.distribution = distribution;
  data.num_road_vertices = 400;
  data.num_pois = 200;
  data.num_users = 600;
  GpssnBuildOptions build;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  GpssnDatabase db(MakeSynthetic(data), build);
  const SpatialSocialNetwork& ssn = db.ssn();

  // Each ball is hashed in the order the reference search emits it,
  // ascending edge and then POI id, so the pinned values do not depend on
  // the order I_R stores a ball in.
  auto balls_and_masks = [&db](std::string* balls, std::string* masks) {
    const SpatialSocialNetwork& ssn = db.ssn();
    for (PoiId id = 0; id < ssn.num_pois(); ++id) {
      const std::span<const PoiId> ids = db.poi_index().ball_ids(id);
      const std::span<const double> dists = db.poi_index().ball_dists(id);
      std::vector<std::pair<PoiId, double>> ball;
      for (size_t i = 0; i < ids.size(); ++i) {
        ball.emplace_back(ids[i], dists[i]);
      }
      std::sort(ball.begin(), ball.end(), [&](const auto& a, const auto& b) {
        return std::pair(ssn.poi(a.first).position.edge, a.first) <
               std::pair(ssn.poi(b.first).position.edge, b.first);
      });
      AppendBytes(balls, ball.size());
      for (const auto& [member, d] : ball) {
        AppendBytes(balls, member);
        AppendBytes(balls, d);
      }
      for (uint64_t word : db.poi_index().sup_mask(id)) {
        AppendBytes(masks, word);
      }
    }
  };
  std::string balls, masks, pivots, rows;
  balls_and_masks(&balls, &masks);

  const RoadPivotTable& table = db.road_pivots();
  for (int k = 0; k < table.num_pivots(); ++k) {
    AppendBytes(&pivots, table.pivots()[k]);
    for (VertexId v = 0; v < ssn.road().num_vertices(); ++v) {
      AppendBytes(&pivots, table.VertexToPivot(v, k));
    }
  }

  std::vector<EdgePosition> targets;
  for (PoiId id = 0; id < ssn.num_pois(); id += 4) {
    targets.push_back(ssn.poi(id).position);
  }
  const auto engine = db.distance_backend()->CreateEngine();
  engine->SetTargets(targets);
  std::vector<double> row(targets.size());
  for (UserId u = 0; u < ssn.num_users(); u += 20) {
    for (double bound : {kInfDistance, 3.0}) {
      engine->SourceToTargets(ssn.user_home(u), bound, row.data());
      for (double d : row) AppendBytes(&rows, d);
    }
  }

  for (EdgeId edge : {3, 50, 120}) {
    EXPECT_TRUE(db.AddPoi(EdgePosition{edge, 0.25}, {1, 4}).ok());
  }
  std::string added;
  balls_and_masks(&added, &added);
  return {ChecksumLine(balls), ChecksumLine(masks), ChecksumLine(pivots),
          ChecksumLine(rows), ChecksumLine(added)};
}

// Every label a build's road searches keep, bit for bit: the stored balls
// and sup_K masks (one 2·r_max search per POI), the pivot tables (one full
// search per pivot), CH rows (one upward search per source) and the balls
// AddPoi searches again. A search kernel may settle equal keys in any
// order, but no label may move. The values depend on the libm behind the
// generators' pow and log, as DatasetTest.NetworksArePinned's do.
TEST(DatabaseTest, BuildSearchesArePinned) {
  const SearchChecksums uni = BuildSearchChecksums(Distribution::kUniform);
  EXPECT_EQ(uni.balls, "checksum 87ac651f561684f5\n");
  EXPECT_EQ(uni.masks, "checksum ff6461bb3edb0e17\n");
  EXPECT_EQ(uni.pivots, "checksum 46de9f25baafad9e\n");
  EXPECT_EQ(uni.rows, "checksum cf588b5e8d514a3f\n");
  EXPECT_EQ(uni.added, "checksum e65d166e6f4da7eb\n");
  const SearchChecksums zipf = BuildSearchChecksums(Distribution::kZipf);
  EXPECT_EQ(zipf.balls, "checksum fef3de820927c33a\n");
  EXPECT_EQ(zipf.masks, "checksum 270826c1b8d9ceb7\n");
  EXPECT_EQ(zipf.pivots, "checksum 46de9f25baafad9e\n");
  EXPECT_EQ(zipf.rows, "checksum 1cbe7ccd663a9b20\n");
  EXPECT_EQ(zipf.added, "checksum 05d81e0328c47067\n");
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
