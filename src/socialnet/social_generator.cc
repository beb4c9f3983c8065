#include "socialnet/social_generator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/macros.h"

namespace gpssn {

namespace {

// Topics in each community's profile, and the probability that a sparse
// topic pick comes from the user's community profile.
constexpr int kCommunityProfileTopics = 6;
constexpr double kProfileAffinity = 0.92;

// Connects a built adjacency list into one component by wiring a random
// member of each extra component to a random member of another one.
void EnsureConnected(std::vector<std::vector<UserId>>* adj, Rng* rng) {
  const int m = static_cast<int>(adj->size());
  if (m == 0) return;
  std::vector<int> component(m, -1);
  std::vector<UserId> queue;
  int num_components = 0;
  for (UserId start = 0; start < m; ++start) {
    if (component[start] >= 0) continue;
    const int c = num_components++;
    component[start] = c;
    queue.clear();
    queue.push_back(start);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (UserId v : (*adj)[queue[head]]) {
        if (component[v] < 0) {
          component[v] = c;
          queue.push_back(v);
        }
      }
    }
  }
  if (num_components <= 1) return;
  std::vector<UserId> rep(num_components, kInvalidUser);
  for (UserId u = 0; u < m; ++u) {
    if (rep[component[u]] == kInvalidUser) rep[component[u]] = u;
  }
  auto insert_unique = [](std::vector<UserId>* v, UserId x) {
    auto it = std::lower_bound(v->begin(), v->end(), x);
    if (it == v->end() || *it != x) v->insert(it, x);
  };
  for (int c = 1; c < num_components; ++c) {
    UserId a = rep[c];
    UserId b;
    do {
      b = static_cast<UserId>(rng->NextBounded(m));
    } while (component[b] == c);
    insert_unique(&(*adj)[a], b);
    insert_unique(&(*adj)[b], a);
  }
}

SocialNetwork BuildFromAdjacency(
    int num_topics, const std::vector<std::vector<double>>& interests,
    std::vector<std::vector<UserId>>* adj) {
  SocialNetworkBuilder builder(num_topics);
  for (const auto& w : interests) {
    GPSSN_CHECK(builder.AddUser(w).ok());
  }
  const int m = static_cast<int>(adj->size());
  for (UserId a = 0; a < m; ++a) {
    for (UserId b : (*adj)[a]) {
      if (a < b) GPSSN_CHECK(builder.AddFriendship(a, b).ok());
    }
  }
  return builder.Build();
}

// Assigns users to communities of roughly `community_size` members, in
// random order so community ids carry no information.
std::vector<int> AssignCommunities(int m, int community_size, Rng* rng) {
  if (community_size <= 0) return std::vector<int>(m, 0);
  const int num_communities =
      std::max(1, (m + community_size - 1) / community_size);
  std::vector<int> community(m);
  for (int u = 0; u < m; ++u) community[u] = u % num_communities;
  rng->Shuffle(&community);
  return community;
}

// Members per community.
std::vector<std::vector<UserId>> CommunityMembers(
    const std::vector<int>& community) {
  int num = 0;
  for (int c : community) num = std::max(num, c + 1);
  std::vector<std::vector<UserId>> members(num);
  for (UserId u = 0; u < static_cast<int>(community.size()); ++u) {
    members[community[u]].push_back(u);
  }
  return members;
}

// Per-community topic profiles: kCommunityProfileTopics topics drawn by
// Zipf popularity (popular topics recur across communities — that is what
// makes cross-community groups still possible).
std::vector<std::vector<KeywordId>> CommunityProfiles(int num_communities,
                                                      int num_topics,
                                                      Rng* rng) {
  ZipfSampler sampler(num_topics, kTopicZipfExponent);
  std::vector<std::vector<KeywordId>> profiles(num_communities);
  for (auto& profile : profiles) {
    int guard = 0;
    while (static_cast<int>(profile.size()) <
               std::min(kCommunityProfileTopics, num_topics) &&
           guard++ < 40 * kCommunityProfileTopics) {
      const KeywordId t = static_cast<KeywordId>(sampler.Sample(rng));
      if (std::find(profile.begin(), profile.end(), t) == profile.end()) {
        profile.push_back(t);
      }
    }
  }
  return profiles;
}

// Sparse homophilous interest vector: k topics, mostly from the community
// profile, weights in [kSparseWeightMin, 1].
std::vector<double> DrawSparseInterestVector(
    int num_topics, const std::vector<KeywordId>& profile,
    double profile_affinity, const ZipfSampler& topic_sampler, Rng* rng) {
  std::vector<double> w(num_topics, 0.0);
  const int k =
      static_cast<int>(rng->UniformInt(kSparseTopicsMin, kSparseTopicsMax));
  int placed = 0, guard = 0;
  while (placed < k && guard++ < 40 * k) {
    KeywordId topic;
    if (!profile.empty() && rng->UniformDouble() < profile_affinity) {
      topic = profile[rng->NextBounded(profile.size())];
    } else {
      topic = static_cast<KeywordId>(topic_sampler.Sample(rng));
    }
    if (w[topic] > 0.0) continue;
    w[topic] = rng->UniformDouble(kSparseWeightMin, 1.0);
    ++placed;
  }
  return w;
}

}  // namespace

std::vector<double> DrawDenseInterestVector(int num_topics, Distribution dist,
                                            double zipf_exponent, Rng* rng) {
  std::vector<double> w(num_topics);
  if (dist == Distribution::kUniform) {
    for (double& p : w) p = rng->UniformDouble();
    return w;
  }
  static constexpr int kLevels = 11;
  ZipfSampler sampler(kLevels, zipf_exponent);
  for (double& p : w) {
    const size_t rank = sampler.Sample(rng);
    p = 1.0 - static_cast<double>(rank) / (kLevels - 1);
  }
  return w;
}

SocialNetwork GenerateSocialNetwork(const SocialGenOptions& options,
                                    std::vector<int>* community_of) {
  GPSSN_CHECK(options.num_users >= 2);
  GPSSN_CHECK(options.degree_min >= 0 &&
              options.degree_min <= options.degree_max);
  Rng rng(options.seed);
  const int m = options.num_users;
  const int d = options.num_topics;

  const std::vector<int> community =
      AssignCommunities(m, options.community_size, &rng);
  const auto members = CommunityMembers(community);
  const auto profiles =
      CommunityProfiles(static_cast<int>(members.size()), d, &rng);
  if (community_of != nullptr) *community_of = community;

  // --- Interest vectors.
  ZipfSampler topic_sampler(d, kTopicZipfExponent);
  std::vector<std::vector<double>> interests(m);
  for (UserId u = 0; u < m; ++u) {
    if (options.interests.sparse) {
      interests[u] = DrawSparseInterestVector(
          d, profiles[community[u]],
          options.community_size > 0 ? kProfileAffinity : 0.0, topic_sampler,
          &rng);
    } else {
      interests[u] = DrawDenseInterestVector(
          d, options.interest_distribution, options.zipf_exponent, &rng);
    }
  }

  // --- Target degrees.
  std::vector<int> target(m);
  if (options.degree_distribution == Distribution::kUniform) {
    for (int& t : target) {
      t = static_cast<int>(
          rng.UniformInt(options.degree_min, options.degree_max));
    }
  } else {
    const int span = options.degree_max - options.degree_min + 1;
    ZipfSampler sampler(span, options.zipf_exponent);
    for (int& t : target) {
      t = options.degree_min + static_cast<int>(sampler.Sample(&rng));
    }
  }

  // --- Edges: community-biased partner choice.
  std::vector<std::vector<UserId>> adj(m);
  auto has_edge = [&](UserId a, UserId b) {
    return std::binary_search(adj[a].begin(), adj[a].end(), b);
  };
  auto add_edge = [&](UserId a, UserId b) {
    adj[a].insert(std::upper_bound(adj[a].begin(), adj[a].end(), b), b);
    adj[b].insert(std::upper_bound(adj[b].begin(), adj[b].end(), a), a);
  };
  for (UserId u = 0; u < m; ++u) {
    int attempts = 0;
    while (static_cast<int>(adj[u].size()) < target[u] &&
           attempts < 10 * (target[u] + 1)) {
      ++attempts;
      UserId v;
      const auto& own = members[community[u]];
      if (options.community_size > 0 && own.size() > 1 &&
          rng.UniformDouble() < options.intra_community_edge_fraction) {
        v = own[rng.NextBounded(own.size())];
      } else {
        v = static_cast<UserId>(rng.NextBounded(m));
      }
      if (v == u || has_edge(u, v)) continue;
      add_edge(u, v);
    }
  }

  EnsureConnected(&adj, &rng);
  return BuildFromAdjacency(d, interests, &adj);
}

SocialNetwork GeneratePowerLawSocialNetwork(
    const PowerLawSocialOptions& options, std::vector<int>* community_of) {
  GPSSN_CHECK(options.num_users >= 2);
  GPSSN_CHECK(options.avg_degree > 0.0);
  GPSSN_CHECK(options.power_law_exponent > 1.0);
  Rng rng(options.seed);
  const int m = options.num_users;

  const std::vector<int> community =
      AssignCommunities(m, options.community_size, &rng);
  const auto members = CommunityMembers(community);
  if (community_of != nullptr) *community_of = community;

  // Power-law degree sequence rescaled to the target mean, capped at
  // sqrt(m·avg) so stub matching stays feasible.
  const double inv = 1.0 / (options.power_law_exponent - 1.0);
  std::vector<double> weight(m);
  double sum = 0.0;
  for (int i = 0; i < m; ++i) {
    weight[i] = std::pow(static_cast<double>(i + 1), -inv);
    sum += weight[i];
  }
  const double cap = std::sqrt(static_cast<double>(m) * options.avg_degree);
  const double scale = options.avg_degree * m / sum;
  std::vector<int> degree(m);
  rng.Shuffle(&weight);  // Decorrelate degree from user id.
  for (int i = 0; i < m; ++i) {
    degree[i] = std::max(1, static_cast<int>(std::min(weight[i] * scale, cap)));
  }

  // Degree-proportional global sampler (CDF + binary search).
  std::vector<double> cdf(m);
  double acc = 0.0;
  for (int i = 0; i < m; ++i) {
    acc += degree[i];
    cdf[i] = acc;
  }
  auto sample_by_degree = [&]() {
    const double x = rng.UniformDouble() * acc;
    return static_cast<UserId>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
  };

  // Stub matching with community mixing.
  std::vector<std::vector<UserId>> adj(m);
  auto has_edge = [&](UserId a, UserId b) {
    return std::binary_search(adj[a].begin(), adj[a].end(), b);
  };
  auto add_edge = [&](UserId a, UserId b) {
    adj[a].insert(std::upper_bound(adj[a].begin(), adj[a].end(), b), b);
    adj[b].insert(std::upper_bound(adj[b].begin(), adj[b].end(), a), a);
  };
  for (UserId u = 0; u < m; ++u) {
    int attempts = 0;
    while (static_cast<int>(adj[u].size()) < degree[u] &&
           attempts < 8 * (degree[u] + 1)) {
      ++attempts;
      UserId v;
      const auto& own = members[community[u]];
      if (options.community_size > 0 && own.size() > 1 &&
          rng.UniformDouble() < options.intra_community_edge_fraction) {
        v = own[rng.NextBounded(own.size())];
      } else {
        v = sample_by_degree();
      }
      if (v == u || has_edge(u, v)) continue;
      add_edge(u, v);
    }
  }

  EnsureConnected(&adj, &rng);
  std::vector<std::vector<double>> interests(
      m, std::vector<double>(options.num_topics, 0.0));
  return BuildFromAdjacency(options.num_topics, interests, &adj);
}

}  // namespace gpssn
