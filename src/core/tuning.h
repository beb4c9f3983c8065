// Copyright 2026 The gpssn Authors.
//
// Data-driven tuning of the GP-SSN system parameters, implementing the
// paper's "Discussions on the Parameter Tuning" (Section 2.2): γ, θ, and r
// are system parameters "tuned from historical query logs or data
// distributions of users/POIs" — specifically the x-th percentile of
//   * pairwise common-interest scores (for γ; sampled over FRIEND pairs,
//     since answer groups are connected),
//   * user-vs-POI-ball matching scores (for θ),
//   * the ball radius needed to gather a typical handful of POIs (for r,
//     standing in for "the maximum distance a user travels between POIs"
//     when no query history exists).

#ifndef GPSSN_CORE_TUNING_H_
#define GPSSN_CORE_TUNING_H_

#include "common/rng.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

struct TuningOptions {
  /// The x-th percentile used for every distribution, in (0, 1). 0.5 =
  /// median: half of friend pairs / user-ball pairs qualify.
  double percentile = 0.5;
  uint64_t seed = 1;
};

struct ParameterSuggestion {
  double gamma = 0.0;
  double theta = 0.0;
  double radius = 0.0;
};

/// Suggests (γ, θ, r) for `ssn` from its own data distributions. The
/// returned radius is clamped to be strictly positive.
ParameterSuggestion SuggestParameters(const SpatialSocialNetwork& ssn,
                                      const TuningOptions& options);

}  // namespace gpssn

#endif  // GPSSN_CORE_TUNING_H_
