// Failure-injection tests for the dataset loader: arbitrarily truncated or
// corrupted inputs must produce a clean Status, never a crash or an invalid
// network.

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ssn/dataset.h"
#include "ssn/serialize.h"

namespace gpssn {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string SerializeSmallNetwork() {
  SyntheticSsnOptions options;
  options.num_road_vertices = 80;
  options.num_pois = 40;
  options.num_users = 60;
  options.num_topics = 8;
  options.seed = 5;
  const SpatialSocialNetwork ssn = MakeSynthetic(options);
  const std::string path = TempPath("fuzz-base.gpssn");
  GPSSN_CHECK_OK(SaveSsn(ssn, path));
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, TruncationsNeverCrash) {
  const std::string contents = SerializeSmallNetwork();
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const size_t cut = rng.NextBounded(contents.size());
    const std::string path = TempPath("fuzz-trunc.gpssn");
    {
      std::ofstream out(path);
      out << contents.substr(0, cut);
    }
    auto result = LoadSsn(path);
    if (result.ok()) {
      // A prefix that happens to parse must still be a VALID network.
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(SerializeFuzzTest, ByteCorruptionsNeverCrash) {
  const std::string contents = SerializeSmallNetwork();
  Rng rng(GetParam() ^ 0xfeed);
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = contents;
    // Flip a handful of characters to random printable bytes.
    const int flips = 1 + static_cast<int>(rng.NextBounded(5));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>('!' + rng.NextBounded(90));
    }
    const std::string path = TempPath("fuzz-corrupt.gpssn");
    {
      std::ofstream out(path);
      out << mutated;
    }
    auto result = LoadSsn(path);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(SerializeFuzzTest, GarbageInputsNeverCrash) {
  Rng rng(GetParam() + 77);
  for (int trial = 0; trial < 30; ++trial) {
    std::string garbage;
    const size_t len = rng.NextBounded(4096);
    garbage.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    const std::string path = TempPath("fuzz-garbage.gpssn");
    {
      std::ofstream out(path, std::ios::binary);
      out << garbage;
    }
    auto result = LoadSsn(path);
    EXPECT_FALSE(result.ok()) << "random bytes should never parse";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest,
                         ::testing::Values(1, 2, 3));

TEST(SerializeFuzzTest, HostileSizesRejected) {
  // Headers that claim absurd sizes must fail fast, not allocate wildly.
  for (const char* payload : {
           "gpssn-v1\nroad -5 10\n",
           "gpssn-v1\nroad 10 -1\n",
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 1.0\npois -3\n",
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 1.0\npois 0\nsocial -1 0 5\n",
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 1.0\npois 0\nsocial 1 0 0\n",
           // Counts no reservation or vector may be sized from.
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 1.0\npois 2000000000\n",
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 1.0\npois 0\n"
           "social 0 0 2000000000\n",
           // A well-formed file but for a negative edge weight.
           "gpssn-v1\nroad 2 1\n0 0\n1 1\n0 1 -7\npois 0\nsocial 0 0 1\n"
           "homes\n",
       }) {
    const std::string path = TempPath("fuzz-hostile.gpssn");
    {
      std::ofstream out(path);
      out << payload;
    }
    auto result = LoadSsn(path);
    EXPECT_FALSE(result.ok()) << payload;
  }
}

}  // namespace
}  // namespace gpssn
