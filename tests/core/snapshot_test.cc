// Tests for database snapshots: a restored database must answer every
// query exactly like the original, and malformed snapshots must fail
// cleanly.

#include "core/snapshot.h"

#include <fstream>

#include <gtest/gtest.h>

#include "ssn/dataset.h"

namespace gpssn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::unique_ptr<GpssnDatabase> BuildSmall(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 300;
  data.num_pois = 150;
  data.num_users = 250;
  data.num_topics = 20;
  data.space_size = 20.0;
  data.seed = seed;
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 4;
  build.social_index.leaf_cell_size = 16;
  build.seed = seed;
  return std::make_unique<GpssnDatabase>(MakeSynthetic(data), build);
}

TEST(SnapshotTest, RoundTripPreservesEveryAnswer) {
  auto original = BuildSmall(1);
  const std::string path = TempPath("db.snapshot");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Pivot ids, per-POI keyword sets and the B(o, r_max) table (searched
  // again at radius r_max on load) must match exactly.
  EXPECT_EQ((*restored)->road_pivots().pivots(),
            original->road_pivots().pivots());
  EXPECT_EQ((*restored)->social_pivots().pivots(),
            original->social_pivots().pivots());
  for (PoiId id = 0; id < original->ssn().num_pois(); ++id) {
    const PoiAug& loaded = (*restored)->poi_index().poi_aug(id);
    const PoiAug& built = original->poi_index().poi_aug(id);
    EXPECT_EQ(loaded.sup_keywords, built.sup_keywords) << "poi " << id;
    EXPECT_EQ(loaded.sub_keywords, built.sub_keywords) << "poi " << id;
    EXPECT_EQ(loaded.ball, built.ball) << "poi " << id;
  }

  // Identical answers across a spread of queries.
  for (int i = 0; i < 10; ++i) {
    GpssnQuery q;
    q.issuer = (i * 37) % original->ssn().num_users();
    q.tau = 2 + (i % 3);
    q.gamma = 0.25;
    q.theta = 0.25;
    q.radius = 2.0;
    auto a = original->Query(q);
    auto b = (*restored)->Query(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->found, b->found) << "query " << i;
    if (a->found) {
      EXPECT_EQ(a->users, b->users) << "query " << i;
      EXPECT_EQ(a->center, b->center) << "query " << i;
      EXPECT_EQ(a->max_dist, b->max_dist) << "query " << i;
    }
  }
}

TEST(SnapshotTest, RestoresDistanceBackendAndCache) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 800;
  data.num_pois = 400;
  data.num_users = 1200;
  data.seed = 4;
  GpssnBuildOptions build;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  build.ch.witness_hop_limit = 6;
  build.ch.witness_settle_limit = 48;
  build.distance_cache_entries = size_t{1} << 16;
  build.seed = 4;
  GpssnDatabase original(MakeSynthetic(data), build);
  const std::string path = TempPath("db-ch.snapshot");
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  GpssnDatabase& copy = **restored;
  ASSERT_NE(copy.distance_backend(), nullptr);
  ASSERT_NE(copy.distance_cache(), nullptr);
  EXPECT_EQ(copy.distance_cache()->max_entries(),
            original.distance_cache()->max_entries());
  EXPECT_EQ(copy.build_options().ch.witness_hop_limit, 6);
  EXPECT_EQ(copy.build_options().ch.witness_settle_limit, 48);

  // CH and Dijkstra distances differ in the last bit, so equal max_dist
  // bits show the copy runs the same engine.
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(data.num_users));
    q.tau = static_cast<int>(rng.UniformInt(2, 4));
    q.gamma = 0.25;
    q.theta = 0.25;
    q.radius = rng.UniformDouble(0.5, 4.0);
    auto a = original.Query(q);
    auto b = copy.Query(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->found, b->found) << "query " << i;
    if (a->found) {
      EXPECT_EQ(a->users, b->users) << "query " << i;
      EXPECT_EQ(a->center, b->center) << "query " << i;
      EXPECT_EQ(a->max_dist, b->max_dist) << "query " << i;
    }
  }
}

TEST(SnapshotTest, SnapshotAfterDynamicInsertsStaysConsistent) {
  auto db = BuildSmall(2);
  // Open a few facilities, then snapshot.
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    const EdgePosition pos{
        static_cast<EdgeId>(rng.NextBounded(db->ssn().road().num_edges())),
        rng.UniformDouble()};
    ASSERT_TRUE(
        db->AddPoi(pos, {static_cast<KeywordId>(rng.NextBounded(20))}).ok());
  }
  const std::string path = TempPath("db-dynamic.snapshot");
  ASSERT_TRUE(SaveSnapshot(*db, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->ssn().num_pois(), db->ssn().num_pois());
  GpssnQuery q;
  q.issuer = 11;
  q.tau = 3;
  auto a = db->Query(q);
  auto b = (*restored)->Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->found, b->found);
  if (a->found) {
    EXPECT_EQ(a->max_dist, b->max_dist);
  }
}

TEST(SnapshotTest, RejectsMalformedSnapshots) {
  EXPECT_TRUE(LoadSnapshot(TempPath("missing.snapshot")).status().IsIoError());
  {
    std::ofstream out(TempPath("badmagic.snapshot"));
    out << "not-a-snapshot\n";
  }
  EXPECT_TRUE(
      LoadSnapshot(TempPath("badmagic.snapshot")).status().IsIoError());
  {
    std::ofstream out(TempPath("v1.snapshot"));
    out << "gpssn-snapshot-v1\n";
  }
  const Status v1 = LoadSnapshot(TempPath("v1.snapshot")).status();
  EXPECT_TRUE(v1.IsIoError());
  EXPECT_NE(v1.message().find("gpssn-snapshot-v1"), std::string::npos)
      << v1.ToString();

  // Truncate a valid snapshot at several points.
  auto db = BuildSmall(3);
  const std::string path = TempPath("trunc-src.snapshot");
  ASSERT_TRUE(SaveSnapshot(*db, path).ok());
  std::string contents;
  {
    std::ifstream in(path);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  for (double fraction : {0.2, 0.5, 0.9, 0.99}) {
    const std::string cut_path = TempPath("trunc.snapshot");
    {
      std::ofstream out(cut_path);
      out << contents.substr(0,
                             static_cast<size_t>(contents.size() * fraction));
    }
    EXPECT_FALSE(LoadSnapshot(cut_path).ok()) << "fraction " << fraction;
  }

  // Rewrite the first POI's keyword line: "<n> sup... <m> sub...".
  const size_t section = contents.find("\npoiaug ");
  ASSERT_NE(section, std::string::npos);
  const size_t line_begin = contents.find('\n', section + 1) + 1;
  const size_t line_end = contents.find('\n', line_begin);
  auto load_with_first_line = [&](const std::string& line) {
    const std::string bad_path = TempPath("bad-keywords.snapshot");
    {
      std::ofstream out(bad_path);
      out << contents.substr(0, line_begin) << line
          << contents.substr(line_end);
    }
    return LoadSnapshot(bad_path).status();
  };
  ASSERT_TRUE(load_with_first_line("2 1 3 1 3").ok());
  // A repeated id passes a sortedness check but not the loader.
  EXPECT_TRUE(load_with_first_line("2 3 3 1 3").IsIoError());
  EXPECT_TRUE(load_with_first_line("2 1 3 2 3 3").IsIoError());
  // sub_K must be a subset of sup_K.
  EXPECT_TRUE(load_with_first_line("2 1 3 1 2").IsIoError());
}

}  // namespace
}  // namespace gpssn
