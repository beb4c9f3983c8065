// Round-trip tests for spatial-social network (de)serialization.

#include "ssn/serialize.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ssn/dataset.h"

namespace gpssn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

SpatialSocialNetwork SmallNetwork(uint64_t seed) {
  SyntheticSsnOptions o;
  o.num_road_vertices = 200;
  o.num_pois = 120;
  o.num_users = 250;
  o.num_topics = 20;
  o.seed = seed;
  return MakeSynthetic(o);
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  const SpatialSocialNetwork original = SmallNetwork(1);
  const std::string path = TempPath("roundtrip.gpssn");
  ASSERT_TRUE(SaveSsn(original, path).ok());
  auto loaded = LoadSsn(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SpatialSocialNetwork& copy = *loaded;

  ASSERT_EQ(copy.road().num_vertices(), original.road().num_vertices());
  ASSERT_EQ(copy.road().num_edges(), original.road().num_edges());
  for (VertexId v = 0; v < original.road().num_vertices(); ++v) {
    EXPECT_EQ(copy.road().vertex_point(v), original.road().vertex_point(v));
  }
  for (EdgeId e = 0; e < original.road().num_edges(); ++e) {
    EXPECT_EQ(copy.road().edge_u(e), original.road().edge_u(e));
    EXPECT_EQ(copy.road().edge_v(e), original.road().edge_v(e));
    EXPECT_DOUBLE_EQ(copy.road().edge_weight(e), original.road().edge_weight(e));
  }

  ASSERT_EQ(copy.num_pois(), original.num_pois());
  for (PoiId i = 0; i < original.num_pois(); ++i) {
    EXPECT_EQ(copy.poi(i).position.edge, original.poi(i).position.edge);
    EXPECT_DOUBLE_EQ(copy.poi(i).position.t, original.poi(i).position.t);
    EXPECT_EQ(copy.poi(i).keywords, original.poi(i).keywords);
  }

  ASSERT_EQ(copy.num_users(), original.num_users());
  ASSERT_EQ(copy.num_topics(), original.num_topics());
  for (UserId u = 0; u < original.num_users(); ++u) {
    const auto wa = original.social().Interests(u);
    const auto wb = copy.social().Interests(u);
    for (size_t f = 0; f < wa.size(); ++f) {
      ASSERT_DOUBLE_EQ(wa[f], wb[f]);
    }
    const auto fa = original.social().Friends(u);
    const auto fb = copy.social().Friends(u);
    ASSERT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(), fb.end()));
    EXPECT_EQ(copy.user_home(u).edge, original.user_home(u).edge);
    EXPECT_DOUBLE_EQ(copy.user_home(u).t, original.user_home(u).t);
  }
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto result = LoadSsn(TempPath("does-not-exist.gpssn"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("bad-magic.gpssn");
  {
    std::ofstream out(path);
    out << "not-a-gpssn-file\n";
  }
  auto result = LoadSsn(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(SerializeTest, TruncatedFileRejected) {
  const SpatialSocialNetwork original = SmallNetwork(2);
  const std::string path = TempPath("truncated.gpssn");
  ASSERT_TRUE(SaveSsn(original, path).ok());
  // Chop the file in half.
  std::string contents;
  {
    std::ifstream in(path);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path);
    out << contents.substr(0, contents.size() / 2);
  }
  auto result = LoadSsn(path);
  ASSERT_FALSE(result.ok());
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

TEST(SerializeTest, OlderVersionFailsNamingIt) {
  const std::string path = TempPath("v1.gpssn");
  ASSERT_TRUE(SaveSsn(SmallNetwork(4), path).ok());
  std::string contents = ReadFile(path);
  ASSERT_EQ(contents.rfind("gpssn-v2\n", 0), 0u);
  contents[7] = '1';
  WriteFile(path, contents);
  const Status status = LoadSsn(path).status();
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
  EXPECT_NE(status.message().find("gpssn-v1"), std::string::npos)
      << status.ToString();
}

// Every truncation and every byte XOR 0x01 and 0xFF of a network file must
// fail with an IoError, whatever the byte held: the checksum line catches
// what the parser would load as another network or reject with a
// builder's status.
TEST(SerializeTest, RejectsEveryTruncationAndFlippedByte) {
  SyntheticSsnOptions o;
  o.num_road_vertices = 24;
  o.num_pois = 8;
  o.num_users = 16;
  o.num_topics = 4;
  o.space_size = 5.0;
  o.seed = 6;
  const std::string path = TempPath("sweep-src.gpssn");
  ASSERT_TRUE(SaveSsn(MakeSynthetic(o), path).ok());
  ASSERT_TRUE(LoadSsn(path).ok());
  const std::string contents = ReadFile(path);

  std::vector<std::string> accepted;
  const std::string bad_path = TempPath("sweep.gpssn");
  auto expect_rejected = [&](const std::string& bytes, std::string what) {
    WriteFile(bad_path, bytes);
    const Status status = LoadSsn(bad_path).status();
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
      << " corrupt network files were not rejected, first: "
      << accepted.front();
}

TEST(SerializeTest, UnwritablePathIsIoError) {
  const SpatialSocialNetwork original = SmallNetwork(3);
  EXPECT_TRUE(
      SaveSsn(original, "/nonexistent-dir/foo.gpssn").IsIoError());
}

}  // namespace
}  // namespace gpssn
