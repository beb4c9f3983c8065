// Tests for the dataset builders (UNI/ZIPF synthetics and the real-data
// substitutes) and the Table 2 statistics.

#include "ssn/dataset.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.h"
#include "socialnet/bfs.h"
#include "ssn/serialize.h"

namespace gpssn {
namespace {

// The checksum line of `ssn`'s gpssn-v2 body: one FNV-1a over every road
// vertex and edge, POI, interest weight, friendship and home, with doubles
// written exactly.
std::string NetworkChecksum(const SpatialSocialNetwork& ssn) {
  std::ostringstream body;
  EXPECT_TRUE(WriteSsnBody(body, ssn).ok());
  return ChecksumLine(body.str());
}

// UNI or ZIPF with every size at `scale` of Table 3's defaults, as the
// shell's and the benches' scaled synthetics are.
SyntheticSsnOptions ScaledSynthetic(Distribution dist, double scale) {
  SyntheticSsnOptions o;
  o.distribution = dist;
  o.num_road_vertices = static_cast<int>(20000 * scale);
  o.num_pois = static_cast<int>(10000 * scale);
  o.num_users = static_cast<int>(30000 * scale);
  return o;
}

// Every byte the four generators write at their default seeds, so a
// change to a generator, its constants or its random-draw order shows
// here. The values depend on the libm behind the generators' pow and log.
TEST(DatasetTest, NetworksArePinned) {
  EXPECT_EQ(NetworkChecksum(MakeSynthetic(
                ScaledSynthetic(Distribution::kUniform, 0.02))),
            "checksum 5b3bf9f9d5f70012\n");
  EXPECT_EQ(NetworkChecksum(
                MakeSynthetic(ScaledSynthetic(Distribution::kZipf, 0.02))),
            "checksum ce712adb23282fb1\n");
  EXPECT_EQ(NetworkChecksum(MakeRealLike(BriCalOptions(0.02))),
            "checksum 5361aa58f8a97b6a\n");
  EXPECT_EQ(NetworkChecksum(MakeRealLike(GowColOptions(0.02))),
            "checksum 4731851d7d930785\n");
}

SyntheticSsnOptions SmallSynthetic(Distribution dist, uint64_t seed) {
  SyntheticSsnOptions o;
  o.distribution = dist;
  o.num_road_vertices = 500;
  o.num_pois = 300;
  o.num_users = 600;
  o.num_topics = 40;
  o.seed = seed;
  return o;
}

TEST(SyntheticDatasetTest, UniValidatesAndMatchesSizes) {
  const SpatialSocialNetwork ssn =
      MakeSynthetic(SmallSynthetic(Distribution::kUniform, 1));
  EXPECT_TRUE(ssn.Validate().ok());
  EXPECT_EQ(ssn.road().num_vertices(), 500);
  EXPECT_EQ(ssn.num_pois(), 300);
  EXPECT_EQ(ssn.num_users(), 600);
  EXPECT_EQ(ssn.num_topics(), 40);
}

TEST(SyntheticDatasetTest, ZipfValidates) {
  const SpatialSocialNetwork ssn =
      MakeSynthetic(SmallSynthetic(Distribution::kZipf, 2));
  EXPECT_TRUE(ssn.Validate().ok());
  // Zipf keyword draws should skew toward low keyword ids.
  std::vector<int> counts(ssn.num_topics(), 0);
  for (const Poi& poi : ssn.pois()) {
    for (KeywordId kw : poi.keywords) ++counts[kw];
  }
  int low = 0, high = 0;
  for (int f = 0; f < ssn.num_topics() / 2; ++f) low += counts[f];
  for (int f = ssn.num_topics() / 2; f < ssn.num_topics(); ++f) {
    high += counts[f];
  }
  EXPECT_GT(low, high);
}

TEST(SyntheticDatasetTest, PoiKeywordsSortedUniqueInVocabulary) {
  const SpatialSocialNetwork ssn =
      MakeSynthetic(SmallSynthetic(Distribution::kUniform, 3));
  for (const Poi& poi : ssn.pois()) {
    ASSERT_FALSE(poi.keywords.empty());
    ASSERT_TRUE(std::is_sorted(poi.keywords.begin(), poi.keywords.end()));
    ASSERT_TRUE(std::adjacent_find(poi.keywords.begin(), poi.keywords.end()) ==
                poi.keywords.end());
  }
}

TEST(SyntheticDatasetTest, DeterministicForSeed) {
  const SpatialSocialNetwork a =
      MakeSynthetic(SmallSynthetic(Distribution::kUniform, 7));
  const SpatialSocialNetwork b =
      MakeSynthetic(SmallSynthetic(Distribution::kUniform, 7));
  ASSERT_EQ(a.num_pois(), b.num_pois());
  for (PoiId i = 0; i < a.num_pois(); ++i) {
    EXPECT_EQ(a.poi(i).position.edge, b.poi(i).position.edge);
    EXPECT_EQ(a.poi(i).keywords, b.poi(i).keywords);
  }
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.user_home(u).edge, b.user_home(u).edge);
  }
}

TEST(SyntheticDatasetTest, StatsReproduceConfiguredShape) {
  const SpatialSocialNetwork ssn =
      MakeSynthetic(SmallSynthetic(Distribution::kUniform, 4));
  const SsnStats stats = ComputeStats(ssn);
  EXPECT_EQ(stats.social_vertices, 600);
  EXPECT_EQ(stats.road_vertices, 500);
  EXPECT_EQ(stats.num_pois, 300);
  EXPECT_GT(stats.road_avg_degree, 1.5);
  EXPECT_GT(stats.social_avg_degree, 3.0);
}

// The Table 2 substitutes must land near the published statistics.
TEST(RealLikeDatasetTest, BriCalMatchesTable2Shape) {
  const RealLikeSsnOptions o = BriCalOptions(/*scale=*/0.1, /*seed=*/5);
  const SpatialSocialNetwork ssn = MakeRealLike(o);
  EXPECT_TRUE(ssn.Validate().ok());
  EXPECT_EQ(ssn.num_users(), 4000);
  EXPECT_EQ(ssn.road().num_vertices(), 2100);
  EXPECT_NEAR(ssn.road().AverageDegree(), 2.1, 0.35);
  EXPECT_NEAR(ssn.social().AverageDegree(), 10.3, 4.0);
}

TEST(RealLikeDatasetTest, GowColHasHigherSocialDegree) {
  const SpatialSocialNetwork bri = MakeRealLike(BriCalOptions(0.05, 5));
  const SpatialSocialNetwork gow = MakeRealLike(GowColOptions(0.05, 5));
  EXPECT_GT(gow.social().AverageDegree(), bri.social().AverageDegree());
  EXPECT_GT(gow.road().num_vertices(), bri.road().num_vertices());
}

TEST(RealLikeDatasetTest, InterestVectorsAreSparseNormalized) {
  const SpatialSocialNetwork ssn = MakeRealLike(BriCalOptions(0.05, 6));
  int users_with_interests = 0;
  for (UserId u = 0; u < ssn.num_users(); ++u) {
    const auto w = ssn.social().Interests(u);
    int nonzero = 0;
    double top = 0;
    for (double p : w) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
      if (p > 0) ++nonzero;
      top = std::max(top, p);
    }
    if (nonzero > 0) {
      ++users_with_interests;
      EXPECT_LE(nonzero, 4);           // Topic discovery keeps the top few.
      EXPECT_DOUBLE_EQ(top, 1.0);      // Max-normalized.
    }
  }
  EXPECT_GT(users_with_interests, ssn.num_users() * 9 / 10);
}

TEST(RealLikeDatasetTest, HomesClusterByCommunity) {
  // Friends should live closer together than random pairs (check-in anchor
  // regions are shared per community).
  const SpatialSocialNetwork ssn = MakeRealLike(BriCalOptions(0.05, 8));
  double friend_dist = 0;
  int friend_pairs = 0;
  for (UserId u = 0; u < ssn.num_users() && friend_pairs < 4000; ++u) {
    for (UserId v : ssn.social().Friends(u)) {
      if (v <= u) continue;
      friend_dist += EuclideanDistance(ssn.user_point(u), ssn.user_point(v));
      ++friend_pairs;
    }
  }
  Rng rng(11);
  double random_dist = 0;
  for (int i = 0; i < friend_pairs; ++i) {
    const UserId u = rng.NextBounded(ssn.num_users());
    const UserId v = rng.NextBounded(ssn.num_users());
    random_dist += EuclideanDistance(ssn.user_point(u), ssn.user_point(v));
  }
  EXPECT_LT(friend_dist / friend_pairs, 0.8 * random_dist / friend_pairs);
}

}  // namespace
}  // namespace gpssn
