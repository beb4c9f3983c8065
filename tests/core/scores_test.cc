// Tests for the interest and matching scores (Eqs. 1-2, 15), including the
// paper's own Table 1 worked example.

#include "core/scores.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/rng.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

// Table 1 of the paper: interest vectors over (restaurant, mall, cafe).
const std::vector<double> kU1 = {0.7, 0.3, 0.7};
const std::vector<double> kU2 = {0.2, 0.9, 0.3};
const std::vector<double> kU3 = {0.4, 0.8, 0.8};
const std::vector<double> kU4 = {0.9, 0.7, 0.7};
const std::vector<double> kU5 = {0.1, 0.8, 0.5};

TEST(InterestScoreTest, Table1Examples) {
  // u1·u4 = 0.7*0.9 + 0.3*0.7 + 0.7*0.7 = 1.33.
  EXPECT_NEAR(InterestScore(kU1, kU4), 1.33, 1e-12);
  // u2·u5 = 0.02 + 0.72 + 0.15 = 0.89.
  EXPECT_NEAR(InterestScore(kU2, kU5), 0.89, 1e-12);
  // Symmetry.
  EXPECT_DOUBLE_EQ(InterestScore(kU3, kU5), InterestScore(kU5, kU3));
}

TEST(InterestScoreTest, SelfScoreIsSquaredNorm) {
  EXPECT_NEAR(InterestScore(kU1, kU1), 0.49 + 0.09 + 0.49, 1e-12);
}

TEST(InterestScoreTest, OrthogonalVectorsScoreZero) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_EQ(InterestScore(a, b), 0.0);
}

TEST(MatchScoreTest, SumsWeightsOfCoveredTopics) {
  // Keywords {restaurant(0), cafe(2)} present: match(u1) = 0.7 + 0.7.
  const std::vector<KeywordId> kws = {0, 2};
  EXPECT_NEAR(MatchScore(kU1, kws), 1.4, 1e-12);
  EXPECT_NEAR(MatchScore(kU2, kws), 0.5, 1e-12);
}

TEST(MatchScoreTest, EmptyKeywordSetScoresZero) {
  EXPECT_EQ(MatchScore(kU1, {}), 0.0);
}

TEST(MatchScoreTest, OutOfVocabularyKeywordsIgnored) {
  const std::vector<KeywordId> kws = {0, 99, -1};
  EXPECT_NEAR(MatchScore(kU1, kws), 0.7, 1e-12);
}

TEST(MatchScoreTest, MonotoneInKeywordSet) {
  // Lemma 2: Match(u, R) <= Match(u, R') when keywords(R) ⊆ keywords(R').
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> w(20);
    for (double& p : w) p = rng.UniformDouble();
    std::vector<KeywordId> small, big;
    for (KeywordId kw = 0; kw < 20; ++kw) {
      if (rng.Bernoulli(0.3)) {
        small.push_back(kw);
        big.push_back(kw);
      } else if (rng.Bernoulli(0.3)) {
        big.push_back(kw);
      }
    }
    ASSERT_LE(MatchScore(w, small), MatchScore(w, big) + 1e-12);
  }
}

TEST(UnionKeywordsTest, SortedUniqueUnion) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 100;
  data.num_pois = 50;
  data.num_users = 50;
  data.num_topics = 10;
  data.seed = 77;
  const SpatialSocialNetwork ssn = MakeSynthetic(data);
  const std::vector<PoiId> ids = {0, 1, 2, 3};
  const auto kws = UnionKeywords(ssn, ids);
  EXPECT_TRUE(std::is_sorted(kws.begin(), kws.end()));
  EXPECT_TRUE(std::adjacent_find(kws.begin(), kws.end()) == kws.end());
  for (PoiId id : ids) {
    for (KeywordId kw : ssn.poi(id).keywords) {
      EXPECT_TRUE(std::binary_search(kws.begin(), kws.end(), kw));
    }
  }
}

// Match_Score over the keyword-union mask Refine builds must equal
// MatchScore over the sorted UnionKeywords vector bit for bit (== on the
// doubles): both sum the same weights in ascending keyword id. Balls are
// random POI subsets, some empty; some POIs carry keywords at and beyond
// num_topics, which both paths ignore.
TEST(MatchScoreOverMaskTest, EqualsMatchScoreOverUnionKeywords) {
  for (int num_topics : {10, 64, 100, 150}) {
    SCOPED_TRACE(num_topics);
    SyntheticSsnOptions data;
    data.num_road_vertices = 100;
    data.num_pois = 60;
    data.num_users = 40;
    data.num_topics = num_topics;
    data.max_keywords_per_poi = 6;
    data.seed = 91 + static_cast<uint64_t>(num_topics);
    const SpatialSocialNetwork base = MakeSynthetic(data);
    std::vector<Poi> pois = base.pois();
    for (size_t i = 0; i < pois.size(); i += 3) {
      std::vector<KeywordId>& kws = pois[i].keywords;
      kws.push_back(num_topics);
      if (i % 2 == 0) kws.push_back(num_topics + 1 + static_cast<int>(i));
    }
    std::vector<EdgePosition> homes;
    for (UserId u = 0; u < base.num_users(); ++u) {
      homes.push_back(base.user_home(u));
    }
    const SpatialSocialNetwork ssn(base.road(), base.social(), homes, pois);

    Rng rng(static_cast<uint64_t>(num_topics));
    const size_t words = KeywordMaskWords(num_topics);
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<PoiId> ball;
      const uint64_t size = rng.NextBounded(8);  // 0 = an empty ball.
      for (uint64_t i = 0; i < size; ++i) {
        ball.push_back(static_cast<PoiId>(rng.NextBounded(pois.size())));
      }
      std::vector<uint64_t> mask(words, 0);
      for (PoiId id : ball) {
        AddToKeywordMask(ssn.poi(id).keywords, num_topics, mask.data());
      }
      std::vector<double> w(static_cast<size_t>(num_topics), 0.0);
      for (double& x : w) {
        if (rng.NextBounded(3) != 0) x = rng.UniformDouble(0.0, 1.0);
      }
      const double expected = MatchScore(w, UnionKeywords(ssn, ball));
      ASSERT_EQ(MatchScoreOverMask(w, mask), expected)
          << "trial " << trial << ", |ball| " << ball.size();
      if (ball.empty()) {
        ASSERT_EQ(expected, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace gpssn
