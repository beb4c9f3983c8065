// Tests for database snapshots: a restored database must equal a fresh
// build of the saved network and answer every query exactly like the
// original, and malformed snapshots must fail cleanly.

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
#include "ssn/serialize.h"

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

// Every index array of `a` equals `b`'s: pivots, I_R's masks, balls, tree
// nodes and pages, and I_S's nodes and pages.
void ExpectSameIndexes(const GpssnDatabase& a, const GpssnDatabase& b) {
  EXPECT_EQ(a.road_pivots().pivots(), b.road_pivots().pivots());
  EXPECT_EQ(a.social_pivots().pivots(), b.social_pivots().pivots());

  const PoiIndex& ra = a.poi_index();
  const PoiIndex& rb = b.poi_index();
  ASSERT_EQ(a.ssn().num_pois(), b.ssn().num_pois());
  for (PoiId id = 0; id < a.ssn().num_pois(); ++id) {
    EXPECT_TRUE(std::ranges::equal(ra.sup_mask(id), rb.sup_mask(id)))
        << "poi " << id;
    EXPECT_TRUE(std::ranges::equal(ra.ball_ids(id), rb.ball_ids(id)))
        << "poi " << id;
    EXPECT_TRUE(std::ranges::equal(ra.ball_dists(id), rb.ball_dists(id)))
        << "poi " << id;
    EXPECT_TRUE(std::ranges::equal(ra.pivot_dists(id), rb.pivot_dists(id)))
        << "poi " << id;
    EXPECT_EQ(ra.poi_page(id), rb.poi_page(id)) << "poi " << id;
  }
  ASSERT_EQ(ra.tree().num_nodes(), rb.tree().num_nodes());
  EXPECT_EQ(ra.tree().root(), rb.tree().root());
  for (RNodeId id = 0; id < ra.tree().num_nodes(); ++id) {
    const RTreeNode& na = ra.tree().node(id);
    const RTreeNode& nb = rb.tree().node(id);
    EXPECT_EQ(na.level, nb.level) << "R-node " << id;
    ASSERT_EQ(na.entries.size(), nb.entries.size()) << "R-node " << id;
    for (size_t e = 0; e < na.entries.size(); ++e) {
      EXPECT_EQ(na.entries[e].id, nb.entries[e].id) << "R-node " << id;
      EXPECT_EQ(na.entries[e].mbr, nb.entries[e].mbr) << "R-node " << id;
    }
    EXPECT_TRUE(std::ranges::equal(ra.node_mask(id), rb.node_mask(id)))
        << "R-node " << id;
    EXPECT_EQ(ra.node_aug(id).subtree_pois, rb.node_aug(id).subtree_pois)
        << "R-node " << id;
    EXPECT_EQ(ra.node_aug(id).page, rb.node_aug(id).page) << "R-node " << id;
  }

  const SocialIndex& sa = a.social_index();
  const SocialIndex& sb = b.social_index();
  ASSERT_EQ(sa.num_nodes(), sb.num_nodes());
  EXPECT_EQ(sa.root(), sb.root());
  for (SNodeId id = 0; id < sa.num_nodes(); ++id) {
    const SocialIndexNode& na = sa.node(id);
    const SocialIndexNode& nb = sb.node(id);
    EXPECT_EQ(na.level, nb.level) << "S-node " << id;
    EXPECT_EQ(na.children, nb.children) << "S-node " << id;
    EXPECT_EQ(na.users, nb.users) << "S-node " << id;
    EXPECT_EQ(na.lb_w, nb.lb_w) << "S-node " << id;
    EXPECT_EQ(na.ub_w, nb.ub_w) << "S-node " << id;
    EXPECT_EQ(na.lb_sp, nb.lb_sp) << "S-node " << id;
    EXPECT_EQ(na.ub_sp, nb.ub_sp) << "S-node " << id;
    EXPECT_EQ(na.page, nb.page) << "S-node " << id;
  }
  for (UserId u = 0; u < a.ssn().num_users(); ++u) {
    EXPECT_EQ(sa.user_page(u), sb.user_page(u)) << "user " << u;
  }
}

// Every value a snapshot persists.
void ExpectSameBuildOptions(const GpssnBuildOptions& a,
                            const GpssnBuildOptions& b) {
  EXPECT_EQ(a.num_road_pivots, b.num_road_pivots);
  EXPECT_EQ(a.num_social_pivots, b.num_social_pivots);
  EXPECT_EQ(a.optimize_pivots, b.optimize_pivots);
  EXPECT_EQ(a.poi_index.r_min, b.poi_index.r_min);
  EXPECT_EQ(a.poi_index.r_max, b.poi_index.r_max);
  EXPECT_EQ(a.poi_index.rtree.max_entries, b.poi_index.rtree.max_entries);
  EXPECT_EQ(a.social_index.leaf_cell_size, b.social_index.leaf_cell_size);
  EXPECT_EQ(a.social_index.fanout, b.social_index.fanout);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.distance_backend, b.distance_backend);
  EXPECT_EQ(a.ch.witness_hop_limit, b.ch.witness_hop_limit);
  EXPECT_EQ(a.ch.witness_settle_limit, b.ch.witness_settle_limit);
  EXPECT_EQ(a.distance_cache_entries, b.distance_cache_entries);
}

TEST(SnapshotTest, RoundTripPreservesEveryAnswer) {
  auto original = BuildSmall(1);
  const std::string path = TempPath("db.snapshot");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // With no maintenance since the build, the original is a fresh build.
  ExpectSameBuildOptions((*restored)->build_options(),
                         original->build_options());
  ExpectSameIndexes(**restored, *original);

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

// A restore is a fresh build of the saved network under the saved options:
// with every persisted option off its default and two POIs opened after
// the build, the restored database equals such a build array for array,
// and answers like the database that was saved.
TEST(SnapshotTest, RestoreIsAFreshBuild) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 500;
  data.num_pois = 220;
  data.num_users = 400;
  data.num_topics = 30;
  data.space_size = 20.0;
  data.seed = 9;
  GpssnBuildOptions build;
  build.num_road_pivots = 4;
  build.num_social_pivots = 3;
  build.optimize_pivots = false;
  build.poi_index.r_min = 1.0;
  build.poi_index.r_max = 3.0;
  build.poi_index.rtree.max_entries = 6;
  build.social_index.leaf_cell_size = 12;
  build.social_index.fanout = 3;
  build.seed = 9;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  build.ch.witness_hop_limit = 6;
  build.ch.witness_settle_limit = 48;
  build.distance_cache_entries = size_t{1} << 12;
  GpssnDatabase live(MakeSynthetic(data), build);
  Rng rng(10);
  for (int i = 0; i < 2; ++i) {
    const EdgePosition pos{
        static_cast<EdgeId>(rng.NextBounded(live.ssn().road().num_edges())),
        rng.UniformDouble()};
    ASSERT_TRUE(live.AddPoi(pos, {static_cast<KeywordId>(i), 7}).ok());
  }

  const std::string path = TempPath("db-fresh.snapshot");
  ASSERT_TRUE(SaveSnapshot(live, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const GpssnDatabase& copy = **restored;
  const std::string network_path = TempPath("db-fresh.gpssn");
  ASSERT_TRUE(SaveSsn(live.ssn(), network_path).ok());
  auto network = LoadSsn(network_path);
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  const GpssnDatabase fresh(std::move(network).value(), build);

  ExpectSameBuildOptions(copy.build_options(), build);
  EXPECT_EQ(copy.ssn().num_pois(), data.num_pois + 2);
  ExpectSameIndexes(copy, fresh);
  ASSERT_NE(copy.distance_backend(), nullptr);
  ASSERT_NE(copy.distance_cache(), nullptr);
  EXPECT_EQ(copy.distance_cache()->max_entries(), size_t{1} << 12);

  // CH and Dijkstra distances differ in the last bit, so equal max_dist
  // bits show the copy runs the saved database's engine.
  for (int i = 0; i < 60; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(data.num_users));
    q.tau = static_cast<int>(rng.UniformInt(2, 4));
    q.gamma = 0.25;
    q.theta = 0.25;
    q.radius = rng.UniformDouble(1.0, 3.0);
    auto a = live.Query(q);
    auto b = (*restored)->Query(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->found, b->found) << "query " << i;
    if (a->found) {
      EXPECT_EQ(a->users, b->users) << "query " << i;
      EXPECT_EQ(a->center, b->center) << "query " << i;
      EXPECT_EQ(a->pois, b->pois) << "query " << i;
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
  for (const char* version : {"gpssn-snapshot-v1", "gpssn-snapshot-v2",
                              "gpssn-snapshot-v3", "gpssn-snapshot-v4"}) {
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

  // Build options the build would GPSSN_CHECK fail to load, naming the
  // field. The build line's fields are "build num_road_pivots
  // num_social_pivots optimize_pivots r_min r_max rtree.max_entries
  // leaf_cell_size fanout seed backend ch.witness_hop_limit
  // ch.witness_settle_limit distance_cache_entries".
  const size_t build_begin = contents.find("\nbuild ") + 1;
  ASSERT_NE(build_begin, 0u);
  const size_t build_end = contents.find('\n', build_begin);
  std::vector<std::string> fields;
  {
    std::istringstream line(
        contents.substr(build_begin, build_end - build_begin));
    for (std::string field; line >> field;) fields.push_back(field);
  }
  ASSERT_EQ(fields.size(), 14u);
  using Edits = std::vector<std::pair<int, std::string>>;
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
  const std::string too_many_road =
      std::to_string(db->ssn().road().num_vertices() + 1);
  const std::string too_many_social =
      std::to_string(db->ssn().num_users() + 1);
  const struct {
    Edits edits;
    const char* field;
  } bad_builds[] = {
      {{{1, "0"}}, "pivot counts"},
      {{{2, "-1"}}, "pivot counts"},
      {{{1, too_many_road}}, "pivot counts"},
      {{{2, too_many_social}}, "pivot counts"},
      {{{3, "2"}}, "optimize_pivots"},
      {{{3, "-1"}}, "optimize_pivots"},
      {{{8, "1"}}, "fanout"},
      {{{6, "3"}}, "rtree.max_entries"},
      {{{7, "0"}}, "leaf_cell_size"},
      {{{4, "-1"}}, "r_min"},
      {{{4, "3"}, {5, "2"}}, "r_max"},
      {{{11, "-1"}}, "ch.witness_hop_limit"},
      {{{12, "2000000"}}, "ch.witness_settle_limit"},
      {{{13, "-1"}}, "distance_cache_entries"},
  };
  for (const auto& bad : bad_builds) {
    const Status status = load_with_build(bad.edits);
    EXPECT_TRUE(status.IsIoError()) << bad.field << ": " << status.ToString();
    EXPECT_NE(status.message().find(bad.field), std::string::npos)
        << status.ToString();
  }
  // A field that does not parse, an unknown backend and a missing trailer
  // fail too.
  EXPECT_TRUE(load_with_build({{3, "yes"}}).IsIoError());
  EXPECT_TRUE(load_with_build({{10, "2"}}).IsIoError());
  EXPECT_TRUE(load_with_build({{13, "0 more"}}).IsIoError());
  // The largest leaf cell is in range: every user in one cell, with no
  // signed overflow on the way (the UBSan build checks).
  EXPECT_TRUE(load_with_build({{7, "2147483647"}}).ok());
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
