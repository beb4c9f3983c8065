// Tests for hop-distance BFS against brute-force references.

#include "socialnet/bfs.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gpssn {
namespace {

SocialNetwork RandomSocial(int n, double p, uint64_t seed) {
  Rng rng(seed);
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  for (int i = 0; i < n; ++i) EXPECT_TRUE(b.AddUser(w).ok());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.UniformDouble() < p) {
        EXPECT_TRUE(b.AddFriendship(i, j).ok());
      }
    }
  }
  return b.Build();
}

std::vector<int> BruteHops(const SocialNetwork& g, UserId s) {
  std::vector<int> hops(g.num_users(), kUnreachableHops);
  std::vector<UserId> queue = {s};
  hops[s] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    for (UserId v : g.Friends(queue[head])) {
      if (hops[v] == kUnreachableHops) {
        hops[v] = hops[queue[head]] + 1;
        queue.push_back(v);
      }
    }
  }
  return hops;
}

class BfsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsPropertyTest, MatchesBruteForce) {
  const SocialNetwork g = RandomSocial(40, 0.08, GetParam());
  BfsEngine engine(&g);
  for (UserId s = 0; s < g.num_users(); s += 3) {
    engine.Run(s);
    const auto want = BruteHops(g, s);
    for (UserId v = 0; v < g.num_users(); ++v) {
      ASSERT_EQ(engine.Hops(v), want[v]) << "s=" << s << " v=" << v;
    }
  }
}

TEST_P(BfsPropertyTest, BoundedRunIsExactWithinBound) {
  const SocialNetwork g = RandomSocial(40, 0.06, GetParam() ^ 0x55);
  BfsEngine engine(&g);
  const int max_hops = 2;
  for (UserId s = 0; s < g.num_users(); s += 5) {
    engine.Run(s, max_hops);
    const auto want = BruteHops(g, s);
    for (UserId v = 0; v < g.num_users(); ++v) {
      if (want[v] <= max_hops) {
        ASSERT_EQ(engine.Hops(v), want[v]);
      } else {
        ASSERT_EQ(engine.Hops(v), kUnreachableHops);
      }
    }
  }
}

// MultiSourceHops must return exactly the labels one BfsEngine run per
// source gives: 130 sources make three batches (64, 64, 2), and the sparse
// graph has several components.
TEST_P(BfsPropertyTest, MultiSourceHopsMatchesOneRunPerSource) {
  const SocialNetwork g = RandomSocial(300, 0.005, GetParam() ^ 0x77);
  Rng rng(GetParam());
  std::vector<UserId> sources;
  for (int i = 0; i < 130; ++i) {
    sources.push_back(static_cast<UserId>(rng.NextBounded(g.num_users())));
  }
  sources[1] = sources[0];    // A repeated source in the first batch.
  sources[129] = sources[5];  // And one across batches.
  std::vector<UserId> targets;
  for (int i = 0; i < 90; ++i) {
    targets.push_back(static_cast<UserId>(rng.NextBounded(g.num_users())));
  }
  targets.push_back(sources[0]);       // A source that is also a target.
  targets.push_back(targets.front());  // A repeated target.

  const auto hops = MultiSourceHops(g, sources, targets);
  ASSERT_EQ(hops.size(), sources.size());
  BfsEngine engine(&g);
  int unreachable = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    engine.Run(sources[i]);
    ASSERT_EQ(hops[i].size(), targets.size());
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(hops[i][j], engine.Hops(targets[j]))
          << "source " << sources[i] << " target " << targets[j];
      unreachable += hops[i][j] == kUnreachableHops;
    }
  }
  EXPECT_GT(unreachable, 0) << "the graph should have several components";
  EXPECT_EQ(hops[0][targets.size() - 2], 0);
}

TEST_P(BfsPropertyTest, MultiSourceHopsToEveryUser) {
  const SocialNetwork g = RandomSocial(120, 0.03, GetParam() ^ 0x99);
  std::vector<UserId> users(g.num_users());
  for (UserId u = 0; u < g.num_users(); ++u) users[u] = u;
  const auto hops = MultiSourceHops(g, users, users);
  for (UserId s = 0; s < g.num_users(); ++s) {
    ASSERT_EQ(hops[s], BruteHops(g, s)) << "source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsPropertyTest, ::testing::Values(1, 5, 9));

TEST(BfsTest, MultiSourceHopsWithNoTargetsOrNoSources) {
  const SocialNetwork g = RandomSocial(30, 0.1, 3);
  const std::vector<UserId> sources = {0, 7, 7};
  const auto no_targets = MultiSourceHops(g, sources, {});
  ASSERT_EQ(no_targets.size(), sources.size());
  for (const auto& row : no_targets) EXPECT_TRUE(row.empty());
  EXPECT_TRUE(MultiSourceHops(g, {}, sources).empty());
}

TEST(BfsTest, VisitedInBfsOrder) {
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(b.AddUser(w).ok());
  ASSERT_TRUE(b.AddFriendship(0, 1).ok());
  ASSERT_TRUE(b.AddFriendship(1, 2).ok());
  ASSERT_TRUE(b.AddFriendship(2, 3).ok());
  const SocialNetwork g = b.Build();
  BfsEngine engine(&g);
  engine.Run(0);
  const std::vector<UserId> want = {0, 1, 2, 3};
  EXPECT_EQ(engine.Visited(), want);
}

TEST(BfsTest, DistanceEarlyExit) {
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(b.AddUser(w).ok());
  for (int i = 0; i + 1 < 6; ++i) ASSERT_TRUE(b.AddFriendship(i, i + 1).ok());
  const SocialNetwork g = b.Build();
  BfsEngine engine(&g);
  EXPECT_EQ(engine.Distance(0, 0), 0);
  EXPECT_EQ(engine.Distance(0, 5), 5);
  EXPECT_EQ(engine.Distance(0, 5, /*max_hops=*/3), kUnreachableHops);
}

TEST(BfsTest, DisconnectedComponentsUnreachable) {
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {0.5};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(b.AddUser(w).ok());
  ASSERT_TRUE(b.AddFriendship(0, 1).ok());
  ASSERT_TRUE(b.AddFriendship(2, 3).ok());
  const SocialNetwork g = b.Build();
  BfsEngine engine(&g);
  engine.Run(0);
  EXPECT_EQ(engine.Hops(2), kUnreachableHops);
  EXPECT_EQ(engine.Hops(3), kUnreachableHops);
  EXPECT_EQ(engine.Hops(1), 1);
}

}  // namespace
}  // namespace gpssn
