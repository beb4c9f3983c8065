// Tests for database snapshots: a restored database must answer every
// query exactly like the original, and malformed snapshots must fail
// cleanly.

#include "core/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ssn/dataset.h"

namespace gpssn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

// `snapshot` with its last line, `checksum <16 hex digits>`, recomputed
// over the bytes before it: an edit by someone who knows the format, which
// only the loader's structural checks can catch.
std::string Resealed(std::string snapshot) {
  snapshot.resize(snapshot.size() - 26);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : snapshot) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %016" PRIx64 "\n", hash);
  return snapshot + line;
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
    EXPECT_TRUE(std::ranges::equal((*restored)->poi_index().sup_mask(id),
                                   original->poi_index().sup_mask(id)))
        << "poi " << id;
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
  WriteFile(TempPath("badmagic.snapshot"), "not-a-snapshot\n");
  EXPECT_TRUE(
      LoadSnapshot(TempPath("badmagic.snapshot")).status().IsIoError());
  // Files of older versions fail naming their version.
  for (const char* version :
       {"gpssn-snapshot-v1", "gpssn-snapshot-v2", "gpssn-snapshot-v3"}) {
    const std::string old_path = TempPath("old.snapshot");
    WriteFile(old_path, std::string(version) + "\n");
    const Status old = LoadSnapshot(old_path).status();
    EXPECT_TRUE(old.IsIoError()) << old.ToString();
    EXPECT_NE(old.message().find(version), std::string::npos)
        << old.ToString();
  }

  auto db = BuildSmall(3);
  const std::string path = TempPath("edit-src.snapshot");
  ASSERT_TRUE(SaveSnapshot(*db, path).ok());
  const std::string contents = ReadFile(path);

  // Rewrite the first POI's keyword line: "<n> sup...".
  const size_t section = contents.find("\npoiaug ");
  ASSERT_NE(section, std::string::npos);
  const size_t line_begin = contents.find('\n', section + 1) + 1;
  const size_t line_end = contents.find('\n', line_begin);
  auto load_with_first_line = [&](const std::string& line) {
    const std::string bad_path = TempPath("bad-keywords.snapshot");
    WriteFile(bad_path, Resealed(contents.substr(0, line_begin) + line +
                                 contents.substr(line_end)));
    return LoadSnapshot(bad_path).status();
  };
  ASSERT_TRUE(load_with_first_line("2 1 3").ok());
  // A repeated id passes a sortedness check but not the loader.
  EXPECT_TRUE(load_with_first_line("2 3 3").IsIoError());
  EXPECT_TRUE(load_with_first_line("3 1 3 2").IsIoError());

  // Build options the index constructors would GPSSN_CHECK fail to load,
  // naming the field. The build line's fields are "build r_min r_max
  // poi_page_size rtree.max_entries rtree.reinsert_fraction leaf_cell_size
  // fanout social_page_size ...".
  const size_t build_begin = contents.find("\nbuild ") + 1;
  ASSERT_NE(build_begin, 0u);
  const size_t build_end = contents.find('\n', build_begin);
  std::vector<std::string> fields;
  {
    std::istringstream line(
        contents.substr(build_begin, build_end - build_begin));
    for (std::string field; line >> field;) fields.push_back(field);
  }
  ASSERT_GE(fields.size(), 10u);
  using Edits = std::vector<std::pair<int, const char*>>;
  auto load_with_build = [&](const Edits& edits) {
    std::vector<std::string> edited = fields;
    for (const auto& [index, value] : edits) edited[index] = value;
    std::string line;
    for (const std::string& field : edited) {
      line += (line.empty() ? "" : " ") + field;
    }
    const std::string bad_path = TempPath("bad-build.snapshot");
    WriteFile(bad_path, Resealed(contents.substr(0, build_begin) + line +
                                 contents.substr(build_end)));
    return LoadSnapshot(bad_path).status();
  };
  ASSERT_TRUE(load_with_build({}).ok());
  const struct {
    Edits edits;
    const char* field;
  } bad_builds[] = {
      {{{7, "1"}}, "fanout"},
      {{{4, "3"}}, "rtree.max_entries"},
      {{{5, "0.6"}}, "rtree.reinsert_fraction"},
      {{{6, "0"}}, "leaf_cell_size"},
      {{{3, "0"}}, "poi page_size"},
      {{{8, "0"}}, "social page_size"},
      {{{1, "-1"}}, "r_min"},
      {{{1, "3"}, {2, "2"}}, "r_max"},
  };
  for (const auto& bad : bad_builds) {
    const Status status = load_with_build(bad.edits);
    EXPECT_TRUE(status.IsIoError()) << bad.field << ": " << status.ToString();
    EXPECT_NE(status.message().find(bad.field), std::string::npos)
        << status.ToString();
  }
  // The largest leaf cell is in range: every user in one cell, with no
  // signed overflow on the way (the UBSan build checks).
  EXPECT_TRUE(load_with_build({{6, "2147483647"}}).ok());
}

TEST(SnapshotTest, RejectsEveryTruncationAndFlippedByte) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 24;
  data.num_pois = 8;
  data.num_users = 16;
  data.num_topics = 4;
  data.space_size = 5.0;
  data.seed = 6;
  GpssnBuildOptions build;
  build.num_road_pivots = 2;
  build.num_social_pivots = 2;
  build.seed = 6;
  const GpssnDatabase db(MakeSynthetic(data), build);
  const std::string path = TempPath("sweep-src.snapshot");
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  ASSERT_TRUE(LoadSnapshot(path).ok());
  const std::string contents = ReadFile(path);

  // Every case must fail with an IoError; the ones that do not are listed.
  std::vector<std::string> accepted;
  const std::string bad_path = TempPath("sweep.snapshot");
  auto expect_rejected = [&](const std::string& bytes, std::string what) {
    WriteFile(bad_path, bytes);
    const Status status = LoadSnapshot(bad_path).status();
    if (!status.IsIoError()) {
      accepted.push_back(std::move(what) + " -> " + status.ToString());
    }
  };
  for (size_t length = 0; length < contents.size(); ++length) {
    expect_rejected(contents.substr(0, length),
                    "truncated to " + std::to_string(length));
  }
  for (size_t i = 0; i < contents.size(); ++i) {
    for (const int mask : {0x01, 0xFF}) {
      std::string flipped = contents;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      expect_rejected(flipped, "byte " + std::to_string(i) + " ^ " +
                                   std::to_string(mask));
    }
  }
  EXPECT_TRUE(accepted.empty())
      << accepted.size() << " of " << 3 * contents.size()
      << " corrupt snapshots were not rejected, first: " << accepted.front();
}

}  // namespace
}  // namespace gpssn
