#include "socialnet/social_pivots.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "common/macros.h"
#include "common/rng.h"

namespace gpssn {

SocialPivotTable::SocialPivotTable(const SocialNetwork& graph,
                                   std::vector<UserId> pivots)
    : pivots_(std::move(pivots)) {
  std::vector<UserId> users(graph.num_users());
  std::iota(users.begin(), users.end(), 0);
  tables_ = MultiSourceHops(graph, pivots_, users);
}

int SocialPivotTable::LowerBound(UserId a, UserId b) const {
  if (a == b) return 0;
  int best = 0;
  for (size_t k = 0; k < pivots_.size(); ++k) {
    const int da = tables_[k][a];
    const int db = tables_[k][b];
    const bool ra = da != kUnreachableHops;
    const bool rb = db != kUnreachableHops;
    if (ra != rb) return kUnreachableHops;  // Different components.
    if (!ra) continue;
    best = std::max(best, std::abs(da - db));
  }
  return best;
}

std::vector<UserId> RandomSocialPivots(const SocialNetwork& graph, int l,
                                       uint64_t seed) {
  GPSSN_CHECK(l >= 1 && l <= graph.num_users());
  Rng rng(seed);
  std::vector<UserId> out;
  for (size_t idx : rng.SampleWithoutReplacement(graph.num_users(), l)) {
    out.push_back(static_cast<UserId>(idx));
  }
  return out;
}

}  // namespace gpssn
