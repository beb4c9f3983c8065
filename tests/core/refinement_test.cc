// Tests for refinement-phase helpers: Corollary 2 and the connected-group
// enumeration (ESU), verified against brute force on small graphs.

#include "core/refinement.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scores.h"
#include "core/social_scratch.h"
#include "socialnet/bfs.h"

namespace gpssn {
namespace {

SocialNetwork RandomSocial(int n, double p, int d, uint64_t seed) {
  Rng rng(seed);
  SocialNetworkBuilder b(d);
  std::vector<double> w(d);
  for (int i = 0; i < n; ++i) {
    for (double& x : w) x = rng.Bernoulli(0.4) ? rng.UniformDouble() : 0.0;
    EXPECT_TRUE(b.AddUser(w).ok());
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.UniformDouble() < p) {
        EXPECT_TRUE(b.AddFriendship(i, j).ok());
      }
    }
  }
  return b.Build();
}

// Brute force: all tau-subsets containing issuer that are connected (in the
// induced subgraph) and pairwise pass gamma.
std::set<std::vector<UserId>> BruteGroups(const SocialNetwork& g,
                                          const GpssnQuery& q,
                                          const std::vector<UserId>& cands) {
  std::set<std::vector<UserId>> out;
  std::vector<UserId> pool;
  for (UserId u : cands) {
    if (u != q.issuer) pool.push_back(u);
  }
  std::vector<int> pick(pool.size(), 0);
  std::fill(pick.begin(), pick.begin() + std::min<size_t>(q.tau - 1, pool.size()), 1);
  if (static_cast<int>(pool.size()) < q.tau - 1) return out;
  std::sort(pick.begin(), pick.end());
  do {
    std::vector<UserId> group = {q.issuer};
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pick[i]) group.push_back(pool[i]);
    }
    if (static_cast<int>(group.size()) != q.tau) continue;
    // Pairwise gamma.
    bool ok = true;
    for (size_t i = 0; i < group.size() && ok; ++i) {
      for (size_t j = i + 1; j < group.size() && ok; ++j) {
        if (InterestScore(g.Interests(group[i]), g.Interests(group[j])) <
            q.gamma) {
          ok = false;
        }
      }
    }
    if (!ok) continue;
    // Connectivity of the induced subgraph.
    std::vector<UserId> frontier = {group[0]};
    std::set<UserId> seen = {group[0]};
    const std::set<UserId> members(group.begin(), group.end());
    for (size_t head = 0; head < frontier.size(); ++head) {
      for (UserId v : g.Friends(frontier[head])) {
        if (members.count(v) && !seen.count(v)) {
          seen.insert(v);
          frontier.push_back(v);
        }
      }
    }
    if (seen.size() != group.size()) continue;
    std::sort(group.begin(), group.end());
    out.insert(group);
  } while (std::next_permutation(pick.begin(), pick.end()));
  return out;
}

class EnumerationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerationPropertyTest, MatchesBruteForce) {
  const SocialNetwork g = RandomSocial(14, 0.25, 4, GetParam());
  Rng rng(GetParam() + 100);
  for (int tau : {2, 3, 4}) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(g.num_users()));
    q.tau = tau;
    q.gamma = 0.25;
    std::vector<UserId> cands;
    for (UserId u = 0; u < g.num_users(); ++u) cands.push_back(u);
    std::vector<std::vector<UserId>> got;
    ASSERT_TRUE(EnumerateGroups(g, q, cands, 1000000, &got));
    std::set<std::vector<UserId>> got_set(got.begin(), got.end());
    ASSERT_EQ(got_set.size(), got.size()) << "duplicate groups emitted";
    EXPECT_EQ(got_set, BruteGroups(g, q, cands)) << "tau=" << tau;
  }
}

TEST_P(EnumerationPropertyTest, RespectsCandidateRestriction) {
  const SocialNetwork g = RandomSocial(16, 0.3, 4, GetParam() ^ 0xaa);
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 3;
  q.gamma = 0.0;
  // Only even users allowed (plus the issuer).
  std::vector<UserId> cands;
  for (UserId u = 0; u < g.num_users(); u += 2) cands.push_back(u);
  std::vector<std::vector<UserId>> got;
  ASSERT_TRUE(EnumerateGroups(g, q, cands, 1000000, &got));
  for (const auto& group : got) {
    for (UserId u : group) {
      EXPECT_TRUE(u % 2 == 0) << "non-candidate user in group";
    }
  }
  EXPECT_EQ(std::set<std::vector<UserId>>(got.begin(), got.end()),
            BruteGroups(g, q, cands));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(EnumerateGroupsTest, CapTruncates) {
  // A clique of 12 with gamma=0 has C(11,3) = 165 groups of size 4.
  SocialNetworkBuilder b(1);
  const std::vector<double> w = {1.0};
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(b.AddUser(w).ok());
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) ASSERT_TRUE(b.AddFriendship(i, j).ok());
  }
  const SocialNetwork g = b.Build();
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 4;
  q.gamma = 0.0;
  std::vector<UserId> cands;
  for (UserId u = 0; u < 12; ++u) cands.push_back(u);
  std::vector<std::vector<UserId>> got;
  EXPECT_FALSE(EnumerateGroups(g, q, cands, 10, &got));
  EXPECT_EQ(got.size(), 10u);
  got.clear();
  EXPECT_TRUE(EnumerateGroups(g, q, cands, 1000, &got));
  EXPECT_EQ(got.size(), 165u);
}

TEST(EnumerateGroupsTest, TauOneReturnsIssuerOnly) {
  const SocialNetwork g = RandomSocial(5, 0.5, 2, 9);
  GpssnQuery q;
  q.issuer = 2;
  q.tau = 1;
  std::vector<std::vector<UserId>> got;
  EXPECT_TRUE(EnumerateGroups(g, q, {}, 10, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], std::vector<UserId>{2});
}

TEST(Corollary2Test, NeverRemovesMembersOfValidGroups) {
  // Soundness: any user that belongs to SOME qualifying group must survive.
  for (uint64_t seed : {1, 2, 3}) {
    const SocialNetwork g = RandomSocial(14, 0.3, 4, seed);
    GpssnQuery q;
    q.issuer = 1;
    q.tau = 3;
    q.gamma = 0.25;
    std::vector<UserId> cands;
    for (UserId u = 0; u < g.num_users(); ++u) cands.push_back(u);
    const auto groups = BruteGroups(g, q, cands);
    std::set<UserId> needed;
    for (const auto& group : groups) {
      needed.insert(group.begin(), group.end());
    }
    std::vector<UserId> filtered = cands;
    QueryStats stats;
    ApplyCorollary2(g, q, &filtered, &stats);
    for (UserId u : needed) {
      EXPECT_TRUE(std::find(filtered.begin(), filtered.end(), u) !=
                  filtered.end())
          << "Corollary 2 removed group member " << u << " (seed " << seed
          << ")";
    }
  }
}

TEST(Corollary2Test, KeepsIssuerAlways) {
  const SocialNetwork g = RandomSocial(10, 0.1, 3, 5);
  GpssnQuery q;
  q.issuer = 4;
  q.tau = 5;
  q.gamma = 0.99;  // Nothing passes.
  std::vector<UserId> cands;
  for (UserId u = 0; u < g.num_users(); ++u) cands.push_back(u);
  QueryStats stats;
  ApplyCorollary2(g, q, &cands, &stats);
  EXPECT_TRUE(std::find(cands.begin(), cands.end(), q.issuer) != cands.end());
}

// A network for the Corollary 2 reference: `n` random users over topics
// [0, d−1), three users with empty runs, and last a user holding only
// topic d−1, which no other user holds, so every partner it has shares no
// topic with it.
SocialNetwork Corollary2Network(int n, int d, uint64_t seed) {
  Rng rng(seed);
  SocialNetworkBuilder b(d);
  std::vector<double> w(d);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < d; ++f) {
      w[f] = f + 1 < d && rng.Bernoulli(0.35) ? rng.UniformDouble() : 0.0;
    }
    EXPECT_TRUE(b.AddUser(w).ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(b.AddUser(std::vector<double>(d, 0.0)).ok());
  }
  std::vector<double> lone(d, 0.0);
  lone[d - 1] = 0.5;
  EXPECT_TRUE(b.AddUser(lone).ok());
  return b.Build();
}

// Corollary 2 by brute force: with at least τ candidates, every non-issuer
// user passing the pair test with fewer than τ − 1 other candidates goes.
std::vector<UserId> Corollary2Reference(const SocialNetwork& g,
                                        const GpssnQuery& q,
                                        const std::vector<UserId>& cands) {
  if (cands.size() < static_cast<size_t>(q.tau)) return cands;
  std::vector<UserId> kept;
  for (UserId u : cands) {
    int partners = 0;
    for (UserId v : cands) {
      partners += v != u && UserSimilarity(q.metric, g.Interests(u),
                                           g.Interests(v)) >= q.gamma;
    }
    if (u == q.issuer || partners >= q.tau - 1) kept.push_back(u);
  }
  return kept;
}

bool SharesTopic(const SocialNetwork& g, UserId u, UserId v) {
  const auto a = g.Interests(u);
  const auto b = g.Interests(v);
  for (size_t f = 0; f < a.size(); ++f) {
    if (a[f] > 0.0 && b[f] > 0.0) return true;
  }
  return false;
}

// The partner search, on the sparse path and through a scratch, removes
// exactly the users the brute-force count removes: every metric, γ = 0
// and a middle and a high value, τ ∈ {1, 2, 5}. The networks hold empty
// runs (two of them score 1.0 under Jaccard) and a user whose partners
// share no topic with it, so a search that stopped after the posting lists
// would remove users the count keeps.
TEST(Corollary2Test, RemovesExactlyTheUsersOfABruteForceCount) {
  struct MetricGammas {
    InterestMetric metric;
    double gammas[3];
  };
  constexpr MetricGammas kCases[] = {
      {InterestMetric::kDotProduct, {0.0, 0.3, 1.0}},
      {InterestMetric::kJaccard, {0.0, 0.2, 0.6}},
      {InterestMetric::kHamming, {0.0, 0.5, 0.85}},
  };
  int kept_without_shared_topic = 0;
  int removed = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const SocialNetwork g = Corollary2Network(24, 8, seed);
    Rng rng(seed * 7 + 1);
    for (const MetricGammas& c : kCases) {
      for (double gamma : c.gammas) {
        for (int tau : {1, 2, 5}) {
          GpssnQuery q;
          q.issuer = static_cast<UserId>(rng.NextBounded(g.num_users()));
          q.tau = tau;
          q.metric = c.metric;
          q.gamma = gamma;
          std::vector<UserId> cands;
          for (UserId u = 0; u < g.num_users(); ++u) {
            if (u == q.issuer || u >= 24 || rng.Bernoulli(0.7)) {
              cands.push_back(u);
            }
          }
          const std::vector<UserId> want = Corollary2Reference(g, q, cands);
          const std::string where =
              "seed=" + std::to_string(seed) +
              " metric=" + std::to_string(static_cast<int>(c.metric)) +
              " gamma=" + std::to_string(gamma) +
              " tau=" + std::to_string(tau);

          std::vector<UserId> sparse = cands;
          QueryStats sparse_stats;
          ApplyCorollary2(g, q, &sparse, &sparse_stats, nullptr);
          EXPECT_EQ(sparse, want) << where;
          EXPECT_EQ(sparse_stats.users_pruned_corollary2,
                    cands.size() - want.size())
              << where;

          SocialScratch scratch;
          scratch.Build(g, q, cands);
          std::vector<UserId> memoized = cands;
          QueryStats memo_stats;
          ApplyCorollary2(g, q, &memoized, &memo_stats, &scratch);
          EXPECT_EQ(memoized, want) << where;
          EXPECT_EQ(memo_stats.users_pruned_corollary2,
                    cands.size() - want.size())
              << where;

          removed += static_cast<int>(cands.size() - want.size());
          for (UserId u : want) {
            if (u == q.issuer || tau < 2) continue;
            const bool shared_partner =
                std::any_of(cands.begin(), cands.end(), [&](UserId v) {
                  return v != u && SharesTopic(g, u, v) &&
                         UserSimilarity(q.metric, g.Interests(u),
                                        g.Interests(v)) >= q.gamma;
                });
            kept_without_shared_topic += !shared_partner;
          }
        }
      }
    }
  }
  // The cases the test exists for do occur.
  EXPECT_GT(removed, 0);
  EXPECT_GT(kept_without_shared_topic, 0);
}

}  // namespace
}  // namespace gpssn
