// Tests of the one Interest_Score summation order and the per-query
// SocialScratch:
//   * UserSimilarity equals a reference spelling out the 4-lane split bit
//     for bit, for every metric and every length, tails included;
//   * a scratch rebuilt after SetInterests sees the new interests;
//   * the scratch-backed and sparse ApplyCorollary2 / EnumerateGroups
//     produce identical removed sets and group sequences under all three
//     metrics, and the count-based Corollary 2 early termination removes
//     exactly the users full evaluation removes, on 20 random networks.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

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

std::vector<double> RandomInterests(Rng* rng, size_t dim, double density) {
  std::vector<double> w(dim, 0.0);
  for (double& x : w) {
    if (rng->Bernoulli(density)) x = rng->UniformDouble();
  }
  return w;
}

TEST(UserSimilarityTest, BitIdenticalToLaneSplitReference) {
  Rng rng(12345);
  std::vector<size_t> dims;
  for (size_t dim = 1; dim <= 13; ++dim) dims.push_back(dim);
  dims.push_back(100);
  for (size_t dim : dims) {
    for (int trial = 0; trial < 50; ++trial) {
      const auto a = RandomInterests(&rng, dim, 0.6);
      const auto b = RandomInterests(&rng, dim, 0.6);
      for (InterestMetric m : kMetrics) {
        // Bit for bit: exact double equality, not NEAR.
        EXPECT_EQ(UserSimilarity(m, a, b), LaneSplitReference(m, a, b))
            << "dim=" << dim << " metric=" << static_cast<int>(m);
      }
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

  std::vector<double> w(g.num_topics(), 0.5);
  ASSERT_TRUE(g.SetInterests(2, w).ok());

  scratch.Build(g, q, cands);
  // The rebuilt row reflects the new interests.
  const auto row = scratch.Row(scratch.IndexOf(2));
  EXPECT_EQ(row.size(), static_cast<size_t>(g.num_topics()));
  for (double x : row) EXPECT_EQ(x, 0.5);
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
