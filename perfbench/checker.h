// Answer checker: re-derives, from the library's public scoring and
// distance APIs, every condition Definition 5 puts on a GP-SSN answer.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <memory>
#include <string>

#include "core/query.h"
#include "roadnet/distance_backend.h"
#include "ssn/spatial_social_network.h"

namespace perfbench {

/// Byte-for-byte equality of two answers (max_dist compared bitwise).
bool SameAnswer(const gpssn::GpssnAnswer& a, const gpssn::GpssnAnswer& b);

/// One-line rendering of a query and an answer, for error reports.
std::string Describe(const gpssn::GpssnQuery& query,
                     const gpssn::GpssnAnswer& answer);

/// Feasibility checker over the network's CURRENT state. Its reference
/// engine snapshots the POI set when constructed, so build a new checker
/// after any AddPoi.
class AnswerChecker {
 public:
  explicit AnswerChecker(const gpssn::SpatialSocialNetwork& ssn);

  /// Empty when `answer` is feasible for `query`; otherwise the first
  /// violated condition. A not-found answer has nothing to check here (it
  /// is compared across paths instead). Checks, for a found answer:
  ///   |S| = τ, S sorted and unique, the issuer in S;
  ///   S connected in the social graph;
  ///   pairwise UserSimilarity >= γ;
  ///   R equal to a reference bounded-Dijkstra ball B(center, r);
  ///   every member's MatchScore over R >= θ;
  ///   max_dist equal to the recomputed max over S×R of dist_RN.
  std::string Check(const gpssn::GpssnQuery& query,
                    const gpssn::GpssnAnswer& answer);

 private:
  const gpssn::SpatialSocialNetwork& ssn_;
  std::unique_ptr<gpssn::DistanceBackend> backend_;
  std::unique_ptr<gpssn::DistanceEngine> engine_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
