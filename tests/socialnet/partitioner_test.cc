// Tests for the multilevel graph partitioner.

#include "socialnet/partitioner.h"

#include <gtest/gtest.h>

#include "socialnet/social_generator.h"

namespace gpssn {
namespace {

class PartitionerTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerTest, CoversEveryUserWithinBalance) {
  SocialGenOptions gen;
  gen.num_users = 2000;
  gen.seed = GetParam();
  const SocialNetwork g = GenerateSocialNetwork(gen);

  const PartitionResult result = PartitionSocialNetwork(g, 64, GetParam());

  ASSERT_EQ(result.cell.size(), static_cast<size_t>(g.num_users()));
  ASSERT_GT(result.num_cells, 1);
  std::vector<int> sizes(result.num_cells, 0);
  for (int c : result.cell) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, result.num_cells);
    ++sizes[c];
  }
  // Balance: no cell exceeds (1 + slack) x average (plus integer rounding).
  const double limit =
      (1.0 + kPartitionBalanceSlack) * g.num_users() / result.num_cells + 2;
  for (int s : sizes) EXPECT_LE(s, limit);
}

TEST_P(PartitionerTest, BeatsRandomAssignmentOnEdgeCut) {
  SocialGenOptions gen;
  gen.num_users = 2000;
  gen.seed = 100 + GetParam();
  const SocialNetwork g = GenerateSocialNetwork(gen);

  const PartitionResult result = PartitionSocialNetwork(g, 64, GetParam());

  // Random assignment with the same number of cells.
  Rng rng(17);
  std::vector<int> random_cells(g.num_users());
  for (int& c : random_cells) {
    c = static_cast<int>(rng.NextBounded(result.num_cells));
  }
  const int64_t random_cut = ComputeEdgeCut(g, random_cells);
  EXPECT_LT(result.cut_edges, random_cut * 3 / 4)
      << "partitioner should clearly beat random placement";
  EXPECT_EQ(result.cut_edges, ComputeEdgeCut(g, result.cell));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerTest, ::testing::Values(1, 2, 3));

TEST(PartitionerTest, SingleCellWhenGraphFits) {
  SocialGenOptions gen;
  gen.num_users = 30;
  gen.seed = 5;
  const SocialNetwork g = GenerateSocialNetwork(gen);
  const PartitionResult result = PartitionSocialNetwork(g, 64, 1);
  EXPECT_EQ(result.num_cells, 1);
  EXPECT_EQ(result.cut_edges, 0);
}

TEST(PartitionerTest, CommunityGraphGetsLowCut) {
  // Strong communities: the partitioner should recover most of them.
  SocialGenOptions gen;
  gen.num_users = 1600;
  gen.community_size = 80;
  gen.intra_community_edge_fraction = 0.95;
  gen.seed = 6;
  const SocialNetwork g = GenerateSocialNetwork(gen);
  const PartitionResult result = PartitionSocialNetwork(g, 80, 7);
  const double cut_fraction =
      static_cast<double>(result.cut_edges) / g.num_friendships();
  EXPECT_LT(cut_fraction, 0.35);
}

TEST(PartitionerTest, EmptyGraph) {
  SocialNetworkBuilder b(1);
  const SocialNetwork g = b.Build();
  const PartitionResult result = PartitionSocialNetwork(g, 64, 1);
  EXPECT_TRUE(result.cell.empty());
  EXPECT_EQ(result.num_cells, 0);
}

}  // namespace
}  // namespace gpssn
