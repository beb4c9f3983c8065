// Copyright 2026 The gpssn Authors.
//
// The social network G_s (Definition 3): users as vertices, friendships as
// edges, and a d-dimensional interest (topic) probability vector u_j.w per
// user. CSR adjacency, immutable after building. Interests are kept twice:
// as dense rows, and as each user's run of nonzero (topic, weight) entries,
// which the query-path kernels read (core/scores.h).

#ifndef GPSSN_SOCIALNET_SOCIAL_GRAPH_H_
#define GPSSN_SOCIALNET_SOCIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "roadnet/types.h"

namespace gpssn {

/// One user's nonzero interests: the topics f with u.w_f > 0, ascending,
/// and weights[i] the weight of topics[i]. A view into the network, valid
/// until the next SetInterests.
struct InterestRun {
  std::span<const KeywordId> topics;
  std::span<const double> weights;

  size_t size() const { return topics.size(); }
};

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

  /// The nonzero entries of Interests(u), ascending by topic. Users hold a
  /// few of d topics, so the query-path kernels score these instead.
  InterestRun Run(UserId u) const {
    const RunRange r = runs_[u];
    return {{run_topics_.data() + r.begin, r.end - r.begin},
            {run_weights_.data() + r.begin, r.end - r.begin}};
  }

  /// Dynamic maintenance: replaces one user's interest vector (profile
  /// drift as new check-ins accumulate). The friendship topology stays
  /// immutable. The user's run is rewritten in place when the new one is
  /// no longer, and appended otherwise; the run arrays are compacted once
  /// their dead entries outnumber the live ones. Indexes built over this
  /// network must be informed (see SocialIndex::UpdateUserInterests).
  Status SetInterests(UserId u, std::span<const double> interests);

 private:
  friend class SocialNetworkBuilder;
  friend SocialNetwork WithInterests(const SocialNetwork& g,
                                     std::vector<double> row_major_interests,
                                     int num_topics);

  // A user's run: [begin, end) of run_topics_ / run_weights_.
  struct RunRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  // Lays every user's run out afresh from the dense rows, in user order.
  void BuildRuns();
  // Drops the dead entries, keeping the runs in user order.
  void CompactRuns();

  int num_topics_ = 0;
  std::vector<int> offsets_;
  std::vector<UserId> adjacency_;       // Sorted within each user's range.
  std::vector<double> interests_;       // Row-major m × d.
  std::vector<KeywordId> run_topics_;   // Every run's topics, ascending.
  std::vector<double> run_weights_;     // Their weights, all > 0.
  std::vector<RunRange> runs_;          // One per user.
  size_t live_run_entries_ = 0;         // Σ run lengths; the rest is dead.
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
