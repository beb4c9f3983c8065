// Tests of the one Interest_Score summation order and the per-query
// SocialScratch:
//   * UserSimilarity equals a reference spelling out the 4-lane split bit
//     for bit, for every metric and every length, tails included, and
//     every run kernel equals its dense kernel bit for bit;
//   * a scratch rebuilt after SetInterests sees the new interests;
//   * the scratch-backed and sparse ApplyCorollary2 / EnumerateGroups
//     produce identical removed sets and group sequences under all three
//     metrics, and the count-based Corollary 2 early termination removes
//     exactly the users full evaluation removes, on 20 random networks.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/rng.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "core/social_scratch.h"

namespace gpssn {
namespace {

constexpr InterestMetric kMetrics[] = {InterestMetric::kDotProduct,
                                       InterestMetric::kJaccard,
                                       InterestMetric::kHamming};

// The definition of core/scores.h written out: term f goes to lane f mod 4,
// lanes combine as (l0 + l1) + (l2 + l3).
double LaneSplitReference(InterestMetric metric, const std::vector<double>& a,
                          const std::vector<double>& b) {
  double num[kScoreLanes] = {};
  double den[kScoreLanes] = {};
  int mismatches = 0;
  for (size_t f = 0; f < a.size(); ++f) {
    const size_t lane = f % kScoreLanes;
    if (metric == InterestMetric::kDotProduct) {
      num[lane] += a[f] * b[f];
    } else {
      num[lane] += std::min(a[f], b[f]);
      den[lane] += std::max(a[f], b[f]);
    }
    mismatches += (a[f] > 0.0) != (b[f] > 0.0);
  }
  const double n = (num[0] + num[1]) + (num[2] + num[3]);
  const double d = (den[0] + den[1]) + (den[2] + den[3]);
  switch (metric) {
    case InterestMetric::kDotProduct:
      return n;
    case InterestMetric::kJaccard:
      return d > 0.0 ? n / d : 1.0;
    case InterestMetric::kHamming:
      return 1.0 - static_cast<double>(mismatches) /
                       static_cast<double>(a.size());
  }
  return 0.0;
}

// Zeros are -0.0 a fifth of the time: a run holds neither sign of zero,
// and skipping a -0.0 term must not change a score's bits.
std::vector<double> RandomInterests(Rng* rng, size_t dim, double density) {
  std::vector<double> w(dim, 0.0);
  for (double& x : w) {
    if (rng->Bernoulli(density)) {
      x = rng->UniformDouble();
    } else if (rng->Bernoulli(0.2)) {
      x = -0.0;
    }
  }
  return w;
}

// The dense kernels against the reference, and the run kernels over the
// same two users against the dense ones. Every comparison is bit for bit:
// exact double equality, not NEAR.
TEST(UserSimilarityTest, BitIdenticalToLaneSplitReference) {
  Rng rng(12345);
  std::vector<size_t> dims;
  for (size_t dim = 1; dim <= 13; ++dim) dims.push_back(dim);
  dims.push_back(100);
  // Density 0 gives empty runs; 1 gives full ones.
  constexpr double kDensities[] = {0.0, 0.05, 0.3, 0.6, 1.0};
  for (size_t dim : dims) {
    const int d = static_cast<int>(dim);
    for (int trial = 0; trial < 50; ++trial) {
      const auto a = RandomInterests(&rng, dim, kDensities[trial % 5]);
      const auto b = RandomInterests(&rng, dim, kDensities[(trial / 5) % 5]);
      SocialNetworkBuilder builder(d);
      ASSERT_TRUE(builder.AddUser(a).ok());
      ASSERT_TRUE(builder.AddUser(b).ok());
      const SocialNetwork g = builder.Build();
      const InterestRun ra = g.Run(0);
      const InterestRun rb = g.Run(1);
      const std::string where = "dim=" + std::to_string(dim) +
                                " trial=" + std::to_string(trial);
      for (InterestMetric m : kMetrics) {
        const double want = LaneSplitReference(m, a, b);
        EXPECT_EQ(UserSimilarity(m, a, b), want)
            << where << " metric=" << static_cast<int>(m);
        EXPECT_EQ(RunSimilarity(m, ra, rb, d), want)
            << where << " metric=" << static_cast<int>(m);
      }
      EXPECT_EQ(InterestScore(a, rb), InterestScore(a, b)) << where;

      // A random keyword set, as a sorted list and a mask.
      std::vector<KeywordId> keywords;
      for (int f = 0; f < d; ++f) {
        if (rng.Bernoulli(0.3)) keywords.push_back(f);
      }
      std::vector<uint64_t> mask(KeywordMaskWords(d), 0);
      AddToKeywordMask(keywords, d, mask.data());
      EXPECT_EQ(MatchScoreOverMask(rb, mask), MatchScoreOverMask(b, mask))
          << where;
      // Lemma 1: a run against the sup_K mask, as the dense row against
      // the sorted sup_K list.
      EXPECT_EQ(MatchScoreOverMask(rb, mask), MatchScore(b, keywords))
          << where;
    }
  }
}

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

TEST(SocialScratchTest, StaleAfterSetInterests) {
  SocialNetwork g = RandomSocial(10, 0.4, 6, 5);
  GpssnQuery q;
  q.issuer = 0;
  q.gamma = 0.1;
  std::vector<UserId> cands = {0, 1, 2, 3, 4, 5};
  SocialScratch scratch;
  scratch.Build(g, q, cands);
  ASSERT_TRUE(scratch.built());
  EXPECT_EQ(scratch.size(), 6);
  EXPECT_EQ(scratch.IndexOf(3), 3);
  EXPECT_EQ(scratch.IndexOf(9), -1);

  // Users 2 and 3 share every topic at 0.5 (score 1.5 >= γ), then user 3
  // holds none (score 0 < γ): each rebuilt scratch scores the pair anew.
  const std::vector<double> full(g.num_topics(), 0.5);
  ASSERT_TRUE(g.SetInterests(2, full).ok());
  ASSERT_TRUE(g.SetInterests(3, full).ok());
  scratch.Build(g, q, cands);
  EXPECT_TRUE(scratch.PairPasses(scratch.IndexOf(2), scratch.IndexOf(3)));
  ASSERT_TRUE(g.SetInterests(3, std::vector<double>(g.num_topics())).ok());
  scratch.Build(g, q, cands);
  EXPECT_FALSE(scratch.PairPasses(scratch.IndexOf(2), scratch.IndexOf(3)));
}

TEST(SocialScratchTest, PairMemoScoresEachPairOnce) {
  SocialNetwork g = RandomSocial(12, 0.5, 6, 17);
  GpssnQuery q;
  q.issuer = 0;
  q.gamma = 0.2;
  std::vector<UserId> cands;
  for (UserId u = 0; u < g.num_users(); ++u) cands.push_back(u);
  SocialScratch scratch;
  scratch.Build(g, q, cands);
  const int n = scratch.size();
  // Score every pair twice; fresh evaluations must not exceed n(n-1)/2.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) scratch.PairPasses(i, j);
    }
  }
  EXPECT_EQ(scratch.pairs_scored(),
            static_cast<uint64_t>(n) * (n - 1) / 2);
}

class ScratchEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// γ drawn from a range where each metric both passes and fails pairs.
double RandomGamma(InterestMetric metric, Rng* rng) {
  switch (metric) {
    case InterestMetric::kDotProduct:
      return rng->UniformDouble(0.05, 0.6);
    case InterestMetric::kJaccard:
      return rng->UniformDouble(0.02, 0.4);
    case InterestMetric::kHamming:
      return rng->UniformDouble(0.3, 0.9);
  }
  return 0.0;
}

// Corollary 2 with early termination must remove EXACTLY the users the
// full quadratic evaluation removes, and the scratch and sparse kernels
// must remove the same ones.
TEST_P(ScratchEquivalenceTest, Corollary2MatchesFullEvaluation) {
  const uint64_t seed = GetParam();
  const SocialNetwork g = RandomSocial(18, 0.3, 5, seed * 31 + 1);
  Rng rng(seed);
  for (InterestMetric metric : kMetrics) {
    for (int trial = 0; trial < 3; ++trial) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(rng.NextBounded(g.num_users()));
      q.tau = 2 + static_cast<int>(rng.NextBounded(4));
      q.metric = metric;
      q.gamma = RandomGamma(metric, &rng);
      std::vector<UserId> cands;
      for (UserId u = 0; u < g.num_users(); ++u) {
        if (rng.Bernoulli(0.8) || u == q.issuer) cands.push_back(u);
      }

      // Full evaluation: count every failing pair, no early exit.
      const int64_t threshold =
          static_cast<int64_t>(cands.size()) - q.tau + 1;
      std::vector<UserId> want;
      for (UserId u : cands) {
        int64_t failures = 0;
        for (UserId v : cands) {
          if (v == u) continue;
          if (UserSimilarity(q.metric, g.Interests(u), g.Interests(v)) <
              q.gamma) {
            ++failures;
          }
        }
        if (u == q.issuer || failures < threshold) want.push_back(u);
      }

      std::vector<UserId> sparse = cands;
      QueryStats sparse_stats;
      ApplyCorollary2(g, q, &sparse, &sparse_stats);

      SocialScratch scratch;
      scratch.Build(g, q, cands);
      std::vector<UserId> memoized = cands;
      QueryStats scratch_stats;
      ApplyCorollary2(g, q, &memoized, &scratch_stats, &scratch);

      EXPECT_EQ(sparse, want) << "seed=" << seed << " metric="
                              << static_cast<int>(metric) << " trial=" << trial;
      EXPECT_EQ(memoized, sparse) << "seed=" << seed << " metric="
                                  << static_cast<int>(metric)
                                  << " trial=" << trial;
      EXPECT_EQ(scratch_stats.users_pruned_corollary2,
                sparse_stats.users_pruned_corollary2);
    }
  }
}

// The scratch-backed ESU enumerator must emit the same groups in the same
// order as the sparse one.
TEST_P(ScratchEquivalenceTest, EnumerateGroupsSameSequence) {
  const uint64_t seed = GetParam();
  const SocialNetwork g = RandomSocial(16, 0.3, 5, seed * 17 + 3);
  Rng rng(seed ^ 0xbeef);
  for (InterestMetric metric : kMetrics) {
    for (int trial = 0; trial < 3; ++trial) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(rng.NextBounded(g.num_users()));
      q.tau = 2 + static_cast<int>(rng.NextBounded(3));
      q.metric = metric;
      q.gamma = RandomGamma(metric, &rng);
      std::vector<UserId> cands;
      for (UserId u = 0; u < g.num_users(); ++u) {
        if (rng.Bernoulli(0.85) || u == q.issuer) cands.push_back(u);
      }

      std::vector<std::vector<UserId>> sparse;
      ASSERT_TRUE(EnumerateGroups(g, q, cands, 1000000, &sparse));

      SocialScratch scratch;
      scratch.Build(g, q, cands);
      std::vector<std::vector<UserId>> memoized;
      ASSERT_TRUE(EnumerateGroups(g, q, cands, 1000000, &memoized, &scratch));

      EXPECT_EQ(sparse, memoized) << "seed=" << seed << " metric="
                                  << static_cast<int>(metric)
                                  << " trial=" << trial << " tau=" << q.tau;
    }
  }
}

// 20 random networks.
INSTANTIATE_TEST_SUITE_P(Seeds, ScratchEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gpssn
