#include "core/social_scratch.h"

#include <algorithm>
#include <cstdint>

#include "common/macros.h"
#include "core/scores.h"

namespace gpssn {

void SocialScratch::Build(const SocialNetwork& social, const GpssnQuery& query,
                          std::span<const UserId> candidates) {
  social_ = &social;
  built_version_ = social.interests_version();
  metric_ = query.metric;
  gamma_ = query.gamma;

  users_.assign(candidates.begin(), candidates.end());
  std::sort(users_.begin(), users_.end());
  const size_t n = users_.size();

  const size_t num_users = static_cast<size_t>(social.num_users());
  if (index_stamp_.size() < num_users) {
    index_stamp_.resize(num_users, 0);
    index_of_.resize(num_users, 0);
  }
  ++generation_;
  if (generation_ == 0) {  // Stamp wrap-around: hard reset.
    std::fill(index_stamp_.begin(), index_stamp_.end(), 0);
    generation_ = 1;
  }
  for (size_t i = 0; i < n; ++i) {
    index_stamp_[users_[i]] = generation_;
    index_of_[users_[i]] = static_cast<int32_t>(i);
  }

  // Candidate-local adjacency bitsets from the CSR friend lists. Candidate
  // indices are id-ascending, so ascending bit iteration visits friends in
  // the same order as Friends().
  adj_words_ = (n + 63) / 64;
  adj_.assign(n * adj_words_, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t* row = adj_.data() + i * adj_words_;
    for (UserId v : social.Friends(users_[i])) {
      const int j = IndexOf(v);
      if (j >= 0) row[static_cast<size_t>(j) >> 6] |= 1ULL << (j & 63);
    }
  }

  memo_.assign(n >= 2 ? n * (n - 1) / 2 : 0, 0);
  pairs_scored_ = 0;
  built_ = true;
}

size_t SocialScratch::TriIndex(int i, int j) const {
  // Row-major upper triangle (i < j): row i starts after the i rows above
  // it, which hold (n-1) + (n-2) + ... + (n-i) entries.
  const size_t n = users_.size();
  const size_t si = static_cast<size_t>(i);
  return si * (2 * n - si - 1) / 2 + static_cast<size_t>(j - i - 1);
}

bool SocialScratch::PairPasses(int i, int j) {
  if (i == j) return true;
  if (i > j) std::swap(i, j);
  uint8_t& state = memo_[TriIndex(i, j)];
  if (state == 0) {
    ++pairs_scored_;
    state = UserSimilarity(metric_, Row(i), Row(j)) >= gamma_ ? 1 : 2;
  }
  return state == 1;
}

}  // namespace gpssn
