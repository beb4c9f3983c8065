#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/scores.h"

namespace perfbench {

using gpssn::GpssnAnswer;
using gpssn::GpssnQuery;
using gpssn::PoiId;
using gpssn::UserId;

bool SameAnswer(const GpssnAnswer& a, const GpssnAnswer& b) {
  if (a.found != b.found) return false;
  if (!a.found) return true;
  return a.users == b.users && a.center == b.center && a.pois == b.pois &&
         std::memcmp(&a.max_dist, &b.max_dist, sizeof(a.max_dist)) == 0;
}

std::string Describe(const GpssnQuery& query, const GpssnAnswer& answer) {
  std::ostringstream out;
  out.precision(17);
  out << "issuer=" << query.issuer << " tau=" << query.tau
      << " gamma=" << query.gamma << " theta=" << query.theta
      << " r=" << query.radius << " -> ";
  if (!answer.found) {
    out << "not found";
    return out.str();
  }
  out << "S={";
  for (size_t i = 0; i < answer.users.size(); ++i) {
    out << (i ? "," : "") << answer.users[i];
  }
  out << "} center=" << answer.center << " |R|=" << answer.pois.size()
      << " max_dist=" << answer.max_dist;
  return out.str();
}

AnswerChecker::AnswerChecker(const gpssn::SpatialSocialNetwork& ssn)
    : ssn_(ssn),
      backend_(gpssn::MakeDijkstraBackend(&ssn.road(), &ssn.pois())),
      engine_(backend_->CreateEngine()) {}

std::string AnswerChecker::Check(const GpssnQuery& query,
                                 const GpssnAnswer& answer) {
  if (!answer.found) return {};
  const gpssn::SocialNetwork& social = ssn_.social();
  const std::vector<UserId>& s = answer.users;

  if (static_cast<int>(s.size()) != query.tau) return "|S| != tau";
  if (!std::is_sorted(s.begin(), s.end()) ||
      std::adjacent_find(s.begin(), s.end()) != s.end()) {
    return "S not sorted and unique";
  }
  if (s.front() < 0 || s.back() >= ssn_.num_users()) return "user out of range";
  if (!std::binary_search(s.begin(), s.end(), query.issuer)) {
    return "issuer not in S";
  }

  // Connectivity: BFS over the friendship edges inside S.
  std::vector<char> reached(s.size(), 0);
  std::vector<size_t> frontier = {static_cast<size_t>(
      std::lower_bound(s.begin(), s.end(), query.issuer) - s.begin())};
  reached[frontier[0]] = 1;
  size_t num_reached = 1;
  while (!frontier.empty()) {
    const size_t i = frontier.back();
    frontier.pop_back();
    for (size_t j = 0; j < s.size(); ++j) {
      if (!reached[j] && social.AreFriends(s[i], s[j])) {
        reached[j] = 1;
        ++num_reached;
        frontier.push_back(j);
      }
    }
  }
  if (num_reached != s.size()) return "S not connected";

  for (size_t i = 0; i < s.size(); ++i) {
    for (size_t j = i + 1; j < s.size(); ++j) {
      if (gpssn::UserSimilarity(query.metric, social.Interests(s[i]),
                                social.Interests(s[j])) < query.gamma) {
        return "pairwise interest score below gamma";
      }
    }
  }

  if (answer.center < 0 || answer.center >= ssn_.num_pois()) {
    return "center out of range";
  }
  std::vector<PoiId> ball;
  for (const auto& [poi, dist] : engine_->BallWithDistances(
           ssn_.poi(answer.center).position, query.radius)) {
    ball.push_back(poi);
  }
  std::sort(ball.begin(), ball.end());
  if (ball != answer.pois) return "R differs from the reference ball";

  const std::vector<gpssn::KeywordId> keywords =
      gpssn::UnionKeywords(ssn_, answer.pois);
  for (UserId u : s) {
    if (gpssn::MatchScore(social.Interests(u), keywords) < query.theta) {
      return "matching score below theta";
    }
  }

  std::vector<gpssn::EdgePosition> targets;
  for (PoiId p : answer.pois) targets.push_back(ssn_.poi(p).position);
  engine_->SetTargets(targets);
  std::vector<double> dist(targets.size());
  // Any distance beyond the reported objective (plus rounding slack) is
  // already a mismatch, so the searches may stop there.
  const double bound = answer.max_dist * (1.0 + 1e-9) + 1e-9;
  double worst = 0.0;
  for (UserId u : s) {
    engine_->SourceToTargets(ssn_.user_home(u), bound, dist.data());
    for (double d : dist) worst = std::max(worst, d);
  }
  if (!(std::fabs(worst - answer.max_dist) <=
        1e-9 * std::max(1.0, answer.max_dist))) {
    std::ostringstream out;
    out.precision(17);
    out << "max_dist " << answer.max_dist << " != recomputed " << worst;
    return out.str();
  }
  return {};
}

}  // namespace perfbench
