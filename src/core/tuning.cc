#include "core/tuning.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/macros.h"
#include "core/scores.h"
#include "roadnet/distance_backend.h"

namespace gpssn {

namespace {

// Sample sizes: score pairs for γ and for θ, and ball centers for r.
constexpr int kScoreSamples = 800;
constexpr int kRadiusSamples = 200;

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = p * (values->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - lo;
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

}  // namespace

ParameterSuggestion SuggestParameters(const SpatialSocialNetwork& ssn,
                                      const TuningOptions& options) {
  GPSSN_CHECK(options.percentile > 0.0 && options.percentile < 1.0);
  GPSSN_CHECK(ssn.num_users() > 1 && ssn.num_pois() > 0);
  Rng rng(options.seed);
  ParameterSuggestion suggestion;
  const SocialNetwork& social = ssn.social();

  // --- γ: percentile of pairwise interest scores over friend pairs.
  // Qualifying groups are connected, so friend pairs are the population the
  // threshold actually gates. We want the x-percentile as the value BELOW
  // which x of pairs fall — picking the (1-x) percentile makes a fraction x
  // of friend pairs qualify.
  {
    std::vector<double> scores;
    scores.reserve(kScoreSamples);
    int guard = 0;
    while (static_cast<int>(scores.size()) < kScoreSamples &&
           guard++ < 20 * kScoreSamples) {
      const UserId u = static_cast<UserId>(rng.NextBounded(ssn.num_users()));
      const auto friends = social.Friends(u);
      if (friends.empty()) continue;
      const UserId v = friends[rng.NextBounded(friends.size())];
      scores.push_back(InterestScore(social.Interests(u), social.Interests(v)));
    }
    suggestion.gamma = Percentile(&scores, 1.0 - options.percentile);
  }

  // --- r: percentile of the radius needed to gather target_ball_size POIs
  // around a random POI (a stand-in for the trip-length distribution of a
  // query log).
  const std::unique_ptr<DistanceBackend> backend =
      MakeDijkstraBackend(&ssn.road(), &ssn.pois());
  const std::unique_ptr<DistanceEngine> engine = backend->CreateEngine();
  {
    std::vector<double> radii;
    for (int s = 0; s < kRadiusSamples; ++s) {
      const PoiId center =
          static_cast<PoiId>(rng.NextBounded(ssn.num_pois()));
      // Grow the probe radius geometrically until enough POIs fall in.
      double probe = 0.25;
      for (int iter = 0; iter < 12; ++iter) {
        const auto ball =
            engine->BallWithDistances(ssn.poi(center).position, probe);
        if (static_cast<int>(ball.size()) >= options.target_ball_size) {
          double max_d = 0.0;
          for (const auto& [id, d] : ball) max_d = std::max(max_d, d);
          radii.push_back(max_d);
          break;
        }
        probe *= 2.0;
      }
    }
    suggestion.radius = std::max(1e-6, Percentile(&radii, options.percentile));
  }

  // --- θ: percentile of matching scores between random users and the balls
  // the suggested radius produces.
  {
    std::vector<double> scores;
    scores.reserve(kScoreSamples);
    for (int s = 0; s < kScoreSamples; ++s) {
      const UserId u = static_cast<UserId>(rng.NextBounded(ssn.num_users()));
      const PoiId center =
          static_cast<PoiId>(rng.NextBounded(ssn.num_pois()));
      const auto ball_dists =
          engine->BallWithDistances(ssn.poi(center).position,
                                    suggestion.radius);
      if (ball_dists.empty()) continue;
      std::vector<PoiId> ball;
      ball.reserve(ball_dists.size());
      for (const auto& [id, d] : ball_dists) ball.push_back(id);
      scores.push_back(
          MatchScore(social.Interests(u), UnionKeywords(ssn, ball)));
    }
    suggestion.theta = Percentile(&scores, 1.0 - options.percentile);
  }

  return suggestion;
}

}  // namespace gpssn
