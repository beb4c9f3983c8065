// Tests for data-driven parameter tuning (Section 2.2's tuning discussion).

#include "core/tuning.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/scores.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SpatialSocialNetwork SmallNetwork(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 400;
  data.num_pois = 250;
  data.num_users = 500;
  data.num_topics = 30;
  data.seed = seed;
  return MakeSynthetic(data);
}

TEST(TuningTest, SuggestionIsWellFormed) {
  const SpatialSocialNetwork ssn = SmallNetwork(1);
  TuningOptions options;
  const ParameterSuggestion s = SuggestParameters(ssn, options);
  EXPECT_GE(s.gamma, 0.0);
  EXPECT_GE(s.theta, 0.0);
  EXPECT_GT(s.radius, 0.0);
}

TEST(TuningTest, HigherPercentileLoosensThresholds) {
  // percentile = fraction of pairs that should QUALIFY; more qualifying
  // pairs means lower γ/θ and a larger radius quantile.
  const SpatialSocialNetwork ssn = SmallNetwork(2);
  TuningOptions strict, loose;
  strict.percentile = 0.2;
  loose.percentile = 0.8;
  const ParameterSuggestion s = SuggestParameters(ssn, strict);
  const ParameterSuggestion l = SuggestParameters(ssn, loose);
  EXPECT_GE(s.gamma, l.gamma);
  EXPECT_GE(s.theta, l.theta);
  EXPECT_LE(s.radius, l.radius);
}

TEST(TuningTest, GammaSplitsFriendPairsNearPercentile) {
  const SpatialSocialNetwork ssn = SmallNetwork(3);
  TuningOptions options;
  options.percentile = 0.5;
  options.seed = 9;
  const ParameterSuggestion s = SuggestParameters(ssn, options);
  // Measure the actual qualifying fraction over friend pairs.
  int pass = 0, pairs = 0;
  const SocialNetwork& social = ssn.social();
  for (UserId u = 0; u < ssn.num_users(); ++u) {
    for (UserId v : social.Friends(u)) {
      if (v <= u) continue;
      ++pairs;
      if (InterestScore(social.Interests(u), social.Interests(v)) >= s.gamma) {
        ++pass;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(pass) / pairs, 0.5, 0.12);
}

TEST(TuningTest, RadiusGathersTargetBallSize) {
  const SpatialSocialNetwork ssn = SmallNetwork(4);
  const ParameterSuggestion s = SuggestParameters(ssn, TuningOptions());
  DijkstraEngine engine(&ssn.road());
  PoiLocator locator(&ssn.road(), &ssn.pois());
  Rng rng(5);
  double total = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const PoiId c = rng.NextBounded(ssn.num_pois());
    total += static_cast<double>(
        locator.Ball(ssn.poi(c).position, s.radius, &engine).size());
  }
  // The median ball should be in the target's neighbourhood.
  EXPECT_GT(total / trials, 2.0);
  EXPECT_LT(total / trials, 40.0);
}

TEST(TuningTest, SuggestedParametersYieldAnswers) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 400;
  data.num_pois = 250;
  data.num_users = 500;
  data.num_topics = 30;
  data.seed = 6;
  SpatialSocialNetwork ssn = MakeSynthetic(data);
  TuningOptions options;
  options.percentile = 0.6;
  const ParameterSuggestion s = SuggestParameters(ssn, options);

  GpssnBuildOptions build;
  build.poi_index.r_min = std::min(0.5, s.radius);
  build.poi_index.r_max = std::max(4.0, s.radius);
  GpssnDatabase db(std::move(ssn), build);
  int found = 0, ran = 0;
  for (UserId issuer = 0; issuer < 16; ++issuer) {
    GpssnQuery q;
    q.issuer = issuer * 29 % db.ssn().num_users();
    q.tau = 3;
    q.gamma = s.gamma;
    q.theta = s.theta;
    q.radius = s.radius;
    auto answer = db.Query(q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ++ran;
    if (answer->found) ++found;
  }
  EXPECT_GT(found, ran / 3) << "tuned parameters should usually be satisfiable";
}

TEST(TuningTest, DeterministicForSeed) {
  const SpatialSocialNetwork ssn = SmallNetwork(7);
  TuningOptions options;
  options.seed = 42;
  const ParameterSuggestion a = SuggestParameters(ssn, options);
  const ParameterSuggestion b = SuggestParameters(ssn, options);
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.radius, b.radius);
}

}  // namespace
}  // namespace gpssn
