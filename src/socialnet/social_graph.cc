#include "socialnet/social_graph.h"

#include <algorithm>

#include "common/macros.h"

namespace gpssn {

bool SocialNetwork::AreFriends(UserId a, UserId b) const {
  const auto friends = Friends(a);
  return std::binary_search(friends.begin(), friends.end(), b);
}

SocialNetworkBuilder::SocialNetworkBuilder(int num_topics)
    : num_topics_(num_topics) {
  GPSSN_CHECK(num_topics >= 1);
}

Result<UserId> SocialNetworkBuilder::AddUser(std::span<const double> interests) {
  if (static_cast<int>(interests.size()) != num_topics_) {
    return Status::InvalidArgument("interest vector has wrong dimensionality");
  }
  for (double p : interests) {
    if (!(p >= 0.0 && p <= 1.0)) {  // Negated: NaN fails too.
      return Status::InvalidArgument("interest probability outside [0, 1]");
    }
  }
  interests_.insert(interests_.end(), interests.begin(), interests.end());
  adjacency_.emplace_back();
  return static_cast<UserId>(adjacency_.size() - 1);
}

Status SocialNetworkBuilder::AddFriendship(UserId a, UserId b) {
  if (a < 0 || b < 0 || a >= num_users() || b >= num_users()) {
    return Status::InvalidArgument("friendship endpoint out of range");
  }
  if (a == b) return Status::InvalidArgument("self-friendship");
  if (HasFriendship(a, b)) return Status::AlreadyExists("duplicate friendship");
  auto insert_sorted = [](std::vector<UserId>* v, UserId x) {
    v->insert(std::upper_bound(v->begin(), v->end(), x), x);
  };
  insert_sorted(&adjacency_[a], b);
  insert_sorted(&adjacency_[b], a);
  return Status::OK();
}

bool SocialNetworkBuilder::HasFriendship(UserId a, UserId b) const {
  const auto& adj = adjacency_[a];
  return std::binary_search(adj.begin(), adj.end(), b);
}

Status SocialNetwork::SetInterests(UserId u, std::span<const double> interests) {
  if (u < 0 || u >= num_users()) {
    return Status::InvalidArgument("user out of range");
  }
  if (static_cast<int>(interests.size()) != num_topics_) {
    return Status::InvalidArgument("interest vector has wrong dimensionality");
  }
  for (double p : interests) {
    if (!(p >= 0.0 && p <= 1.0)) {  // Negated: NaN fails too.
      return Status::InvalidArgument("interest probability outside [0, 1]");
    }
  }
  std::copy(interests.begin(), interests.end(),
            interests_.begin() + static_cast<size_t>(u) * num_topics_);
  ++interests_version_;
  return Status::OK();
}

SocialNetwork WithInterests(const SocialNetwork& g,
                            std::vector<double> row_major_interests,
                            int num_topics) {
  GPSSN_CHECK(num_topics >= 1);
  GPSSN_CHECK(row_major_interests.size() ==
              static_cast<size_t>(g.num_users()) * num_topics);
  SocialNetwork out = g;
  out.num_topics_ = num_topics;
  out.interests_ = std::move(row_major_interests);
  ++out.interests_version_;
  return out;
}

SocialNetwork SocialNetworkBuilder::Build() {
  SocialNetwork g;
  g.num_topics_ = num_topics_;
  g.interests_ = std::move(interests_);
  const int m = num_users();
  g.offsets_.assign(m + 1, 0);
  for (int u = 0; u < m; ++u) {
    g.offsets_[u + 1] = g.offsets_[u] + static_cast<int>(adjacency_[u].size());
  }
  g.adjacency_.reserve(g.offsets_[m]);
  for (int u = 0; u < m; ++u) {
    g.adjacency_.insert(g.adjacency_.end(), adjacency_[u].begin(),
                        adjacency_[u].end());
  }
  *this = SocialNetworkBuilder(num_topics_);
  return g;
}

}  // namespace gpssn
