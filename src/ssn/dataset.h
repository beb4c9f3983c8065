// Copyright 2026 The gpssn Authors.
//
// Dataset builders for the four evaluation networks of Section 6.1:
//   * UNI / ZIPF — fully synthetic spatial-social networks, generated
//     exactly per the paper's recipe (random planar-ish road network, POIs
//     on random edges with Uniform/Zipf keyword values, social network with
//     Uniform/Zipf degrees in [1, 10] and interest probabilities, users
//     mapped to random road locations).
//   * BriCal / GowCol — substitutes for the real Brightkite+California and
//     Gowalla+Colorado data (not available offline): power-law social
//     graphs matched to Table 2's sizes/degrees, road networks with Table
//     2's sizes/degrees, and interest vectors + home locations derived from
//     a simulated check-in history, mirroring how the paper derives them
//     from real check-ins (interest w_f = fraction of visits to POIs
//     carrying keyword f; home = centroid of checked-in POIs snapped to the
//     nearest road edge).

#ifndef GPSSN_SSN_DATASET_H_
#define GPSSN_SSN_DATASET_H_

#include <string>

#include "socialnet/social_generator.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

/// Parameters of the synthetic UNI/ZIPF generator. Defaults are the bold
/// values of Table 3.
struct SyntheticSsnOptions {
  Distribution distribution = Distribution::kUniform;
  int num_road_vertices = 20000;
  double road_avg_degree = 2.2;
  double space_size = 100.0;
  int num_pois = 10000;
  int num_users = 30000;
  /// Vocabulary size d shared by user topics and POI keywords. 100 keeps the
  /// default thresholds (γ = θ = 0.3) selective, giving pruning powers in
  /// the bands Figure 7 reports.
  int num_topics = 100;
  /// Keywords per POI drawn from [1, max_keywords_per_poi].
  int max_keywords_per_poi = 2;
  double zipf_exponent = 1.0;
  /// Community/homophily structure of the social side (see
  /// SocialGenOptions); community_size = 0 disables it.
  int community_size = 150;
  uint64_t seed = 1;
};

/// Builds a synthetic spatial-social network (UNI when distribution is
/// kUniform, ZIPF when kZipf).
SpatialSocialNetwork MakeSynthetic(const SyntheticSsnOptions& options);

/// Parameters of the real-data substitutes.
struct RealLikeSsnOptions {
  std::string name = "BriCal";
  int num_users = 40000;
  double social_avg_degree = 10.3;
  double power_law_exponent = 2.5;
  int num_road_vertices = 21000;
  double road_avg_degree = 2.1;
  double space_size = 100.0;
  int num_pois = 10000;
  int num_topics = 100;
  int max_keywords_per_poi = 2;
  /// Community size for the social graph; communities also share a home
  /// neighbourhood (check-in anchor region), as real LBSN friends do.
  int community_size = 200;
  uint64_t seed = 7;
};

/// Table 2 presets. `scale` in (0, 1] shrinks every size proportionally
/// (used by the reduced-scale benchmark runs).
RealLikeSsnOptions BriCalOptions(double scale = 1.0, uint64_t seed = 7);
RealLikeSsnOptions GowColOptions(double scale = 1.0, uint64_t seed = 8);

/// Builds a check-in-driven real-data substitute.
SpatialSocialNetwork MakeRealLike(const RealLikeSsnOptions& options);

}  // namespace gpssn

#endif  // GPSSN_SSN_DATASET_H_
