// Copyright 2026 The gpssn Authors.
//
// Synthetic social-network generators (Section 6.1): m users, each connected
// to deg(G_s) random friends where the degree follows a Uniform or Zipf
// distribution within [1, 10], plus a power-law-degree generator matched to
// the real Brightkite/Gowalla statistics (Table 2).
//
// Both generators support COMMUNITY STRUCTURE with interest homophily:
// users belong to latent communities, edges form preferentially inside the
// community, and user topic choices are biased toward a per-community topic
// profile. Real location-based social networks exhibit exactly this
// correlation, and it is what gives the paper's social index I_S its
// index-level pruning power (interest lb/ub boxes of partition cells are
// only tight when friends share interests). Setting community_size = 0
// disables the structure and yields the paper-literal fully random recipe.

#ifndef GPSSN_SOCIALNET_SOCIAL_GENERATOR_H_
#define GPSSN_SOCIALNET_SOCIAL_GENERATOR_H_

#include "common/rng.h"
#include "socialnet/social_graph.h"

namespace gpssn {

enum class Distribution {
  kUniform,
  kZipf,
};

/// The sparse interest model: each user cares about kSparseTopicsMin to
/// kSparseTopicsMax topics with weights in [kSparseWeightMin, 1]; topic
/// choice follows a Zipf(kTopicZipfExponent) popularity, which also draws
/// the community topic profiles.
inline constexpr int kSparseTopicsMin = 2;
inline constexpr int kSparseTopicsMax = 4;
inline constexpr double kSparseWeightMin = 0.2;
inline constexpr double kTopicZipfExponent = 0.25;

struct SocialGenOptions {
  int num_users = 10000;
  int num_topics = 50;
  /// Per-user target degree drawn from [degree_min, degree_max] with this
  /// distribution (paper: Uniform/Zipf within [1, 10]).
  Distribution degree_distribution = Distribution::kUniform;
  int degree_min = 1;
  int degree_max = 10;
  /// Zipf exponent for kZipf degree draws.
  double zipf_exponent = 1.0;
  /// Community structure; 0 disables it.
  int community_size = 150;
  double intra_community_edge_fraction = 0.7;
  uint64_t seed = 1;
};

/// Generates a social network per the paper's synthetic recipe (plus the
/// homophily extension above), connected by bridging edges. If
/// `community_of` is non-null it receives each user's community id (all
/// zero when community_size == 0).
SocialNetwork GenerateSocialNetwork(const SocialGenOptions& options,
                                    std::vector<int>* community_of = nullptr);

struct PowerLawSocialOptions {
  int num_users = 40000;
  int num_topics = 50;
  /// Target AVERAGE degree (Table 2: Brightkite 10.3, Gowalla 32.1).
  double avg_degree = 10.3;
  /// Power-law exponent of the degree sequence (2 < a < 3 for real social
  /// networks).
  double power_law_exponent = 2.5;
  /// Community structure (same semantics as SocialGenOptions).
  int community_size = 200;
  double intra_community_edge_fraction = 0.7;
  uint64_t seed = 1;
};

/// Power-law-degree generator (stub matching with community mixing, then
/// bridging edges that connect the graph) used by the Bri+Cal / Gow+Col
/// real-data substitutes. Interest vectors are NOT assigned here (all
/// zeros); the spatial-social dataset builder derives them from simulated
/// check-in histories. If `community_of` is non-null it receives each
/// user's community id.
SocialNetwork GeneratePowerLawSocialNetwork(
    const PowerLawSocialOptions& options,
    std::vector<int>* community_of = nullptr);

}  // namespace gpssn

#endif  // GPSSN_SOCIALNET_SOCIAL_GENERATOR_H_
