// Tests for the social-network graph structure and builder.

#include "socialnet/social_graph.h"

#include <gtest/gtest.h>

#include <vector>

namespace gpssn {
namespace {

SocialNetwork MakePath(int n, int d = 2) {
  SocialNetworkBuilder b(d);
  std::vector<double> w(d, 0.5);
  for (int i = 0; i < n; ++i) {
    w[0] = static_cast<double>(i) / std::max(1, n - 1);
    EXPECT_TRUE(b.AddUser(w).ok());
  }
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(b.AddFriendship(i, i + 1).ok());
  }
  return b.Build();
}

TEST(SocialNetworkBuilderTest, ValidatesInterestVectors) {
  SocialNetworkBuilder b(3);
  const std::vector<double> short_vec = {0.1, 0.2};
  EXPECT_TRUE(b.AddUser(short_vec).status().IsInvalidArgument());
  const std::vector<double> out_of_range = {0.1, 0.2, 1.5};
  EXPECT_TRUE(b.AddUser(out_of_range).status().IsInvalidArgument());
  const std::vector<double> ok = {0.0, 0.5, 1.0};
  EXPECT_TRUE(b.AddUser(ok).ok());
}

TEST(SocialNetworkBuilderTest, RejectsBadFriendships) {
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  ASSERT_TRUE(b.AddUser(w).ok());
  ASSERT_TRUE(b.AddUser(w).ok());
  EXPECT_TRUE(b.AddFriendship(0, 0).IsInvalidArgument());
  EXPECT_TRUE(b.AddFriendship(0, 9).IsInvalidArgument());
  EXPECT_TRUE(b.AddFriendship(0, 1).ok());
  EXPECT_EQ(b.AddFriendship(1, 0).code(), StatusCode::kAlreadyExists);
}

TEST(SocialNetworkTest, FriendsAreSortedAndSymmetric) {
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(b.AddUser(w).ok());
  ASSERT_TRUE(b.AddFriendship(0, 3).ok());
  ASSERT_TRUE(b.AddFriendship(0, 1).ok());
  ASSERT_TRUE(b.AddFriendship(0, 4).ok());
  const SocialNetwork g = b.Build();
  const auto friends = g.Friends(0);
  ASSERT_EQ(friends.size(), 3u);
  EXPECT_TRUE(std::is_sorted(friends.begin(), friends.end()));
  EXPECT_TRUE(g.AreFriends(0, 3));
  EXPECT_TRUE(g.AreFriends(3, 0));
  EXPECT_FALSE(g.AreFriends(1, 2));
}

TEST(SocialNetworkTest, CountsAndDegrees) {
  const SocialNetwork g = MakePath(5);
  EXPECT_EQ(g.num_users(), 5);
  EXPECT_EQ(g.num_friendships(), 4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(2), 2);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 8.0 / 5.0);
}

TEST(SocialNetworkTest, InterestsRoundTrip) {
  const SocialNetwork g = MakePath(4, 3);
  for (UserId u = 0; u < 4; ++u) {
    const auto w = g.Interests(u);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_DOUBLE_EQ(w[1], 0.5);
  }
}

TEST(SocialNetworkTest, WithInterestsReplacesVectors) {
  const SocialNetwork g = MakePath(3, 2);
  std::vector<double> fresh = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const SocialNetwork h = WithInterests(g, fresh, 2);
  EXPECT_EQ(h.num_users(), 3);
  EXPECT_EQ(h.num_friendships(), 2);  // Topology preserved.
  EXPECT_DOUBLE_EQ(h.Interests(1)[0], 0.3);
  EXPECT_DOUBLE_EQ(h.Interests(2)[1], 0.6);
  // Original untouched.
  EXPECT_DOUBLE_EQ(g.Interests(1)[1], 0.5);
}

// Every user's run must list exactly the nonzero entries of its dense row,
// in ascending topic order.
void ExpectRunsMatchRows(const SocialNetwork& g) {
  for (UserId u = 0; u < g.num_users(); ++u) {
    std::vector<KeywordId> topics;
    std::vector<double> weights;
    const auto row = g.Interests(u);
    for (size_t f = 0; f < row.size(); ++f) {
      if (row[f] != 0.0) {
        topics.push_back(static_cast<KeywordId>(f));
        weights.push_back(row[f]);
      }
    }
    const InterestRun run = g.Run(u);
    EXPECT_EQ(std::vector<KeywordId>(run.topics.begin(), run.topics.end()),
              topics)
        << "user " << u;
    EXPECT_EQ(std::vector<double>(run.weights.begin(), run.weights.end()),
              weights)
        << "user " << u;
  }
}

TEST(SocialNetworkTest, RunsFollowTheDenseRows) {
  constexpr int kTopics = 8;
  SocialNetworkBuilder b(kTopics);
  // Six users holding topics {u, u+2, u+4, u+6} mod 8, and one -0.0,
  // which no run holds.
  for (int u = 0; u < 6; ++u) {
    std::vector<double> w(kTopics, 0.0);
    for (int k = 0; k < 4; ++k) w[(u + 2 * k) % kTopics] = 0.1 * (k + 1);
    w[(u + 1) % kTopics] = -0.0;
    ASSERT_TRUE(b.AddUser(w).ok());
  }
  ASSERT_TRUE(b.AddFriendship(0, 1).ok());
  SocialNetwork g = b.Build();
  ExpectRunsMatchRows(g);

  const SocialNetwork replaced =
      WithInterests(g, std::vector<double>(6 * kTopics, 0.25), kTopics);
  ExpectRunsMatchRows(replaced);
  EXPECT_EQ(replaced.Run(3).size(), static_cast<size_t>(kTopics));

  // Growing a run appends it after every other; shrinking it rewrites it
  // where it stands.
  std::vector<double> w(kTopics, 0.0);
  w[1] = w[2] = w[3] = w[5] = w[6] = w[7] = 0.5;
  ASSERT_TRUE(g.SetInterests(0, w).ok());
  const KeywordId* grown = g.Run(0).topics.data();
  EXPECT_GT(grown, g.Run(5).topics.data());
  ExpectRunsMatchRows(g);
  w.assign(kTopics, 0.0);
  w[4] = 0.9;
  w[6] = 0.3;
  ASSERT_TRUE(g.SetInterests(0, w).ok());
  EXPECT_EQ(g.Run(0).topics.data(), grown);
  ExpectRunsMatchRows(g);

  // A copy is independent of the original.
  SocialNetwork copy = g;
  ExpectRunsMatchRows(copy);
  ASSERT_TRUE(copy.SetInterests(1, std::vector<double>(kTopics, 1.0)).ok());
  ExpectRunsMatchRows(copy);
  ExpectRunsMatchRows(g);
  EXPECT_EQ(g.Run(1).size(), 4u);

  // Empty runs and runs of all d topics; the dead entries these leave
  // behind outnumber the live ones, so the runs are compacted on the way.
  for (UserId u = 1; u < 6; ++u) {
    ASSERT_TRUE(g.SetInterests(u, std::vector<double>(kTopics, 0.0)).ok());
    EXPECT_EQ(g.Run(u).size(), 0u);
    ExpectRunsMatchRows(g);
  }
  for (UserId u = 0; u < 6; u += 2) {
    ASSERT_TRUE(g.SetInterests(u, std::vector<double>(kTopics, 0.75)).ok());
    EXPECT_EQ(g.Run(u).size(), static_cast<size_t>(kTopics));
    ExpectRunsMatchRows(g);
  }
}

TEST(SocialNetworkTest, EmptyNetwork) {
  SocialNetworkBuilder b(2);
  const SocialNetwork g = b.Build();
  EXPECT_EQ(g.num_users(), 0);
  EXPECT_EQ(g.num_friendships(), 0);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

}  // namespace
}  // namespace gpssn
