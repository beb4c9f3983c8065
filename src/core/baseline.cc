#include "core/baseline.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "roadnet/distance_backend.h"
#include "roadnet/shortest_path.h"

namespace gpssn {

double Log10Binomial(int64_t n, int64_t k) {
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  return (std::lgamma(static_cast<double>(n) + 1) -
          std::lgamma(static_cast<double>(k) + 1) -
          std::lgamma(static_cast<double>(n - k) + 1)) /
         std::log(10.0);
}

GpssnAnswer BruteForceGpssn(const SpatialSocialNetwork& ssn,
                            const GpssnQuery& query, int64_t max_groups,
                            QueryStats* stats) {
  WallTimer timer;
  const SocialNetwork& social = ssn.social();
  GpssnAnswer answer;

  // All connected τ-groups containing the issuer with pairwise γ.
  std::vector<UserId> all_users(social.num_users());
  for (UserId u = 0; u < social.num_users(); ++u) all_users[u] = u;
  std::vector<std::vector<UserId>> groups;
  const bool complete =
      EnumerateGroups(social, query, all_users, max_groups, &groups);
  if (stats != nullptr) {
    stats->groups_enumerated = groups.size();
    stats->truncated = !complete;
  }
  if (groups.empty()) return answer;

  const std::unique_ptr<DistanceBackend> backend =
      MakeDijkstraBackend(&ssn.road(), &ssn.pois());
  const std::unique_ptr<DistanceEngine> engine = backend->CreateEngine();

  // Per-user exact distances to every POI (exhaustive, no bounds): every
  // POI is a registered target, one unbounded one-to-many evaluation per
  // distinct group member.
  std::vector<EdgePosition> targets(ssn.num_pois());
  for (PoiId o = 0; o < ssn.num_pois(); ++o) {
    targets[o] = ssn.poi(o).position;
  }
  engine->SetTargets(targets);
  std::vector<UserId> members;
  for (const auto& group : groups) {
    members.insert(members.end(), group.begin(), group.end());
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::vector<std::vector<double>> dist_to_poi(social.num_users());
  for (UserId u : members) {
    auto& row = dist_to_poi[u];
    row.resize(ssn.num_pois());
    engine->SourceToTargets(ssn.user_home(u), kInfDistance, row.data());
  }

  // Every POI as a ball center.
  for (PoiId c = 0; c < ssn.num_pois(); ++c) {
    const auto ball_dists =
        engine->BallWithDistances(ssn.poi(c).position, query.radius);
    std::vector<PoiId> ball;
    for (const auto& [id, d] : ball_dists) ball.push_back(id);
    std::sort(ball.begin(), ball.end());
    if (ball.empty()) continue;
    const std::vector<KeywordId> kws = UnionKeywords(ssn, ball);
    for (const auto& group : groups) {
      if (stats != nullptr) ++stats->pairs_examined;
      bool all_match = true;
      for (UserId u : group) {
        if (MatchScore(social.Interests(u), kws) < query.theta) {
          all_match = false;
          break;
        }
      }
      if (!all_match) continue;
      double obj = 0.0;
      for (UserId u : group) {
        for (PoiId o : ball) obj = std::max(obj, dist_to_poi[u][o]);
      }
      if (!std::isfinite(obj)) continue;
      if (obj < answer.max_dist) {
        answer.found = true;
        answer.users = group;
        answer.center = c;
        answer.pois = ball;
        answer.max_dist = obj;
      }
    }
  }
  if (stats != nullptr) stats->cpu_seconds = timer.ElapsedSeconds();
  return answer;
}

Result<BaselineEstimate> EstimateBaselineCost(const SpatialSocialNetwork& ssn,
                                              const GpssnQuery& query,
                                              int samples, uint64_t seed) {
  GPSSN_CHECK(samples > 0);
  const SocialNetwork& social = ssn.social();
  const int m = social.num_users();
  const int n = ssn.num_pois();
  if (query.issuer < 0 || query.issuer >= m) {
    return Status::InvalidArgument("issuer outside [0, |users|)");
  }
  if (query.tau < 1 || query.tau > m) {
    return Status::InvalidArgument("tau outside [1, |users|]");
  }
  if (n == 0) {
    return Status::InvalidArgument("no POI to center a ball on");
  }
  Rng rng(seed);
  DijkstraEngine engine(&ssn.road());
  PoiLocator locator(&ssn.road(), &ssn.pois());

  BaselineEstimate est;
  est.log10_candidate_pairs =
      Log10Binomial(m - 1, query.tau - 1) + std::log10(std::max(1, n));

  WallTimer timer;
  double total_ios = 0.0;
  const double vertices_per_page = 128.0;
  for (int s = 0; s < samples; ++s) {
    // One candidate pair (S, R): τ−1 random partners + a random center.
    std::vector<UserId> group = {query.issuer};
    while (static_cast<int>(group.size()) < query.tau) {
      const UserId u = static_cast<UserId>(rng.NextBounded(m));
      if (std::find(group.begin(), group.end(), u) == group.end()) {
        group.push_back(u);
      }
    }
    const PoiId center = static_cast<PoiId>(rng.NextBounded(n));

    // The naive per-pair work: pairwise interest scores, ball
    // materialization, matching scores, exact max-distance.
    double sink = 0.0;
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        sink += InterestScore(social.Interests(group[i]),
                              social.Interests(group[j]));
      }
    }
    const auto ball_dists =
        locator.BallWithDistances(ssn.poi(center).position, query.radius,
                                  &engine);
    total_ios += 1.0 + ball_dists.size();  // Center + ball POI records.
    std::vector<PoiId> ball;
    for (const auto& [id, d] : ball_dists) ball.push_back(id);
    const std::vector<KeywordId> kws = UnionKeywords(ssn, ball);
    for (UserId u : group) {
      sink += MatchScore(social.Interests(u), kws);
    }
    for (UserId u : group) {
      engine.RunFromPosition(ssn.user_home(u));
      total_ios += 1.0 + engine.Settled().size() / vertices_per_page;
      for (PoiId o : ball) {
        sink += engine.DistanceToPosition(ssn.poi(o).position);
      }
    }
    // Keep the compiler from eliding the measured work.
    if (sink == -1.0) std::abort();
  }
  const double elapsed = timer.ElapsedSeconds();
  est.avg_pair_cpu_seconds = elapsed / samples;
  est.avg_pair_ios = total_ios / samples;

  const double log10_total_cpu =
      std::log10(std::max(est.avg_pair_cpu_seconds, 1e-12)) +
      est.log10_candidate_pairs;
  est.estimated_total_cpu_seconds =
      log10_total_cpu > 300 ? std::numeric_limits<double>::infinity()
                            : std::pow(10.0, log10_total_cpu);
  const double log10_total_ios =
      std::log10(std::max(est.avg_pair_ios, 1e-12)) +
      est.log10_candidate_pairs;
  est.estimated_total_ios =
      log10_total_ios > 300 ? std::numeric_limits<double>::infinity()
                            : std::pow(10.0, log10_total_ios);
  est.estimated_total_days = est.estimated_total_cpu_seconds / 86400.0;
  return est;
}

}  // namespace gpssn
