// Copyright 2026 The gpssn Authors.
//
// The social network G_s (Definition 3): users as vertices, friendships as
// edges, and a d-dimensional interest (topic) probability vector u_j.w per
// user. Immutable after building; CSR adjacency.

#ifndef GPSSN_SOCIALNET_SOCIAL_GRAPH_H_
#define GPSSN_SOCIALNET_SOCIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "roadnet/types.h"

namespace gpssn {

/// Immutable social network. Construct with SocialNetworkBuilder.
class SocialNetwork {
 public:
  SocialNetwork() = default;

  int num_users() const { return static_cast<int>(offsets_.empty() ? 0 : offsets_.size() - 1); }
  int num_friendships() const { return static_cast<int>(adjacency_.size() / 2); }
  int num_topics() const { return num_topics_; }

  /// Friends of user `u`.
  std::span<const UserId> Friends(UserId u) const {
    return std::span<const UserId>(adjacency_.data() + offsets_[u],
                                   offsets_[u + 1] - offsets_[u]);
  }

  int Degree(UserId u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Average degree (the deg(G_s) statistic of Table 2).
  double AverageDegree() const {
    return num_users() == 0 ? 0.0
                            : 2.0 * num_friendships() / static_cast<double>(num_users());
  }

  bool AreFriends(UserId a, UserId b) const;

  /// Interest vector u_j.w: d probabilities in [0, 1].
  std::span<const double> Interests(UserId u) const {
    return std::span<const double>(interests_.data() +
                                       static_cast<size_t>(u) * num_topics_,
                                   num_topics_);
  }

  /// Dynamic maintenance: replaces one user's interest vector (profile
  /// drift as new check-ins accumulate). The friendship topology stays
  /// immutable. Indexes built over this network must be informed (see
  /// SocialIndex::UpdateUserInterests).
  Status SetInterests(UserId u, std::span<const double> interests);

 private:
  friend class SocialNetworkBuilder;
  friend SocialNetwork WithInterests(const SocialNetwork& g,
                                     std::vector<double> row_major_interests,
                                     int num_topics);

  int num_topics_ = 0;
  std::vector<int> offsets_;
  std::vector<UserId> adjacency_;       // Sorted within each user's range.
  std::vector<double> interests_;       // Row-major m × d.
};

/// Accumulates users/friendships, then finalizes the CSR representation.
class SocialNetworkBuilder {
 public:
  /// `num_topics` is the dimensionality d of interest vectors.
  explicit SocialNetworkBuilder(int num_topics);

  /// Adds a user with the given interest vector (must have d entries, each
  /// in [0, 1]). Returns the new user id.
  Result<UserId> AddUser(std::span<const double> interests);

  /// Adds an undirected friendship edge. Self-loops and duplicates are
  /// rejected.
  Status AddFriendship(UserId a, UserId b);

  bool HasFriendship(UserId a, UserId b) const;

  int num_users() const { return static_cast<int>(adjacency_.size()); }

  SocialNetwork Build();

 private:
  int num_topics_;
  std::vector<double> interests_;
  std::vector<std::vector<UserId>> adjacency_;  // Sorted per user.
};

/// Returns a copy of `g` whose interest vectors are replaced by
/// `row_major_interests` (m × num_topics, row-major). Used by dataset
/// builders that derive interests from simulated check-in histories after
/// the friendship topology exists.
SocialNetwork WithInterests(const SocialNetwork& g,
                            std::vector<double> row_major_interests,
                            int num_topics);

}  // namespace gpssn

#endif  // GPSSN_SOCIALNET_SOCIAL_GRAPH_H_
