// Tests for the synthetic social-network generators.

#include "socialnet/social_generator.h"

#include <gtest/gtest.h>

#include "socialnet/bfs.h"

namespace gpssn {
namespace {

bool IsConnected(const SocialNetwork& g) {
  BfsEngine engine(&g);
  engine.Run(0);
  return static_cast<int>(engine.Visited().size()) == g.num_users();
}

TEST(SocialGeneratorTest, RespectsSizeAndConnectivity) {
  SocialGenOptions options;
  options.num_users = 2000;
  options.seed = 1;
  const SocialNetwork g = GenerateSocialNetwork(options);
  EXPECT_EQ(g.num_users(), 2000);
  EXPECT_TRUE(IsConnected(g));
}

TEST(SocialGeneratorTest, DegreeInPlausibleRange) {
  SocialGenOptions options;
  options.num_users = 3000;
  options.degree_min = 1;
  options.degree_max = 10;
  options.seed = 2;
  const SocialNetwork g = GenerateSocialNetwork(options);
  // Each user requests ~U[1,10] partners and also receives requests, so the
  // average degree lands between the requested mean (5.5) and twice it.
  EXPECT_GE(g.AverageDegree(), 4.0);
  EXPECT_LE(g.AverageDegree(), 12.0);
}

TEST(SocialGeneratorTest, ZipfDegreesAreSkewedLow) {
  SocialGenOptions uniform, zipf;
  uniform.num_users = zipf.num_users = 3000;
  uniform.seed = zipf.seed = 3;
  uniform.degree_distribution = Distribution::kUniform;
  zipf.degree_distribution = Distribution::kZipf;
  zipf.zipf_exponent = 1.5;
  EXPECT_LT(GenerateSocialNetwork(zipf).AverageDegree(),
            GenerateSocialNetwork(uniform).AverageDegree());
}

TEST(SocialGeneratorTest, SparseInterestsAreSparseAndBounded) {
  SocialGenOptions options;
  options.num_users = 500;
  options.num_topics = 50;
  options.seed = 4;
  const SocialNetwork g = GenerateSocialNetwork(options);
  for (UserId u = 0; u < g.num_users(); ++u) {
    const auto w = g.Interests(u);
    int nonzero = 0;
    for (double p : w) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
      if (p > 0) ++nonzero;
    }
    EXPECT_LE(nonzero, kSparseTopicsMax);
  }
}

TEST(SocialGeneratorTest, CommunityHomophilyRaisesFriendScores) {
  SocialGenOptions options;
  options.num_users = 2000;
  options.num_topics = 100;
  options.seed = 6;
  std::vector<int> community;
  const SocialNetwork g = GenerateSocialNetwork(options, &community);
  ASSERT_EQ(community.size(), 2000u);
  // Friends share interests more than random pairs.
  double friend_score = 0;
  int friend_pairs = 0;
  for (UserId u = 0; u < g.num_users(); ++u) {
    for (UserId v : g.Friends(u)) {
      if (v <= u) continue;
      double s = 0;
      const auto wu = g.Interests(u);
      const auto wv = g.Interests(v);
      for (int f = 0; f < 100; ++f) s += wu[f] * wv[f];
      friend_score += s;
      ++friend_pairs;
    }
  }
  Rng rng(7);
  double random_score = 0;
  const int random_pairs = friend_pairs;
  for (int i = 0; i < random_pairs; ++i) {
    const UserId u = rng.NextBounded(g.num_users());
    const UserId v = rng.NextBounded(g.num_users());
    double s = 0;
    const auto wu = g.Interests(u);
    const auto wv = g.Interests(v);
    for (int f = 0; f < 100; ++f) s += wu[f] * wv[f];
    random_score += s;
  }
  EXPECT_GT(friend_score / friend_pairs, 2.0 * random_score / random_pairs);
}

TEST(SocialGeneratorTest, PowerLawMatchesTargetMeanDegree) {
  PowerLawSocialOptions options;
  options.num_users = 5000;
  options.avg_degree = 10.3;
  options.seed = 8;
  const SocialNetwork g = GeneratePowerLawSocialNetwork(options);
  EXPECT_EQ(g.num_users(), 5000);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_NEAR(g.AverageDegree(), 10.3, 3.5);
  // Degree distribution must be heavy-tailed: max degree far above mean.
  int max_degree = 0;
  for (UserId u = 0; u < g.num_users(); ++u) {
    max_degree = std::max(max_degree, g.Degree(u));
  }
  EXPECT_GT(max_degree, 40);
}

TEST(SocialGeneratorTest, PowerLawHighDegreeVariant) {
  PowerLawSocialOptions options;
  options.num_users = 3000;
  options.avg_degree = 32.1;
  options.power_law_exponent = 2.3;
  options.seed = 9;
  const SocialNetwork g = GeneratePowerLawSocialNetwork(options);
  EXPECT_NEAR(g.AverageDegree(), 32.1, 10.0);
}

TEST(SocialGeneratorTest, DeterministicForSeed) {
  SocialGenOptions options;
  options.num_users = 400;
  options.seed = 10;
  const SocialNetwork a = GenerateSocialNetwork(options);
  const SocialNetwork b = GenerateSocialNetwork(options);
  ASSERT_EQ(a.num_friendships(), b.num_friendships());
  for (UserId u = 0; u < a.num_users(); ++u) {
    const auto fa = a.Friends(u);
    const auto fb = b.Friends(u);
    ASSERT_TRUE(std::equal(fa.begin(), fa.end(), fb.begin(), fb.end()));
  }
}

TEST(SocialGeneratorTest, NoCommunitiesMode) {
  SocialGenOptions options;
  options.num_users = 300;
  options.community_size = 0;
  options.seed = 11;
  std::vector<int> community;
  const SocialNetwork g = GenerateSocialNetwork(options, &community);
  EXPECT_EQ(g.num_users(), 300);
  for (int c : community) EXPECT_EQ(c, 0);
}

}  // namespace
}  // namespace gpssn
