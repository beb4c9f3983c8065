#include "socialnet/bfs.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/macros.h"

namespace gpssn {

BfsEngine::BfsEngine(const SocialNetwork* graph) : graph_(graph) {
  GPSSN_CHECK(graph != nullptr);
  hops_.resize(graph->num_users(), 0);
  stamp_.resize(graph->num_users(), 0);
}

void BfsEngine::Run(UserId source, int max_hops) {
  GPSSN_CHECK(source >= 0 && source < graph_->num_users());
  ++generation_;
  if (generation_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 1;
  }
  visited_.clear();
  hops_[source] = 0;
  stamp_[source] = generation_;
  visited_.push_back(source);
  for (size_t head = 0; head < visited_.size(); ++head) {
    const UserId u = visited_[head];
    const int next_hops = hops_[u] + 1;
    if (next_hops > max_hops) break;  // BFS order: all later labels >= hops_[u].
    for (UserId v : graph_->Friends(u)) {
      if (stamp_[v] == generation_) continue;
      stamp_[v] = generation_;
      hops_[v] = next_hops;
      visited_.push_back(v);
    }
  }
}

int BfsEngine::Distance(UserId a, UserId b, int max_hops) {
  if (a == b) return 0;
  Run(a, max_hops);
  return Hops(b);
}

std::vector<std::vector<int>> MultiSourceHops(const SocialNetwork& graph,
                                              std::span<const UserId> sources,
                                              std::span<const UserId> targets) {
  const int n = graph.num_users();
  for (UserId s : sources) GPSSN_CHECK(s >= 0 && s < n);
  for (UserId t : targets) GPSSN_CHECK(t >= 0 && t < n);
  std::vector<std::vector<int>> hops(
      sources.size(), std::vector<int>(targets.size(), kUnreachableHops));
  if (targets.empty()) return hops;
  // seen[u]: the batch's sources that have reached u; frontier[u]: those
  // that reached it at the last level.
  std::vector<uint64_t> seen(n), frontier(n), next(n);
  auto record = [&](size_t base, const std::vector<uint64_t>& reached,
                    int level) {
    for (size_t j = 0; j < targets.size(); ++j) {
      for (uint64_t bits = reached[targets[j]]; bits != 0; bits &= bits - 1) {
        hops[base + std::countr_zero(bits)][j] = level;
      }
    }
  };
  for (size_t base = 0; base < sources.size(); base += 64) {
    const size_t batch = std::min<size_t>(64, sources.size() - base);
    const uint64_t everyone =
        batch == 64 ? ~uint64_t{0} : (uint64_t{1} << batch) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    for (size_t i = 0; i < batch; ++i) {
      seen[sources[base + i]] |= uint64_t{1} << i;
    }
    frontier = seen;
    record(base, frontier, 0);
    // Level by level, each user pulls the sources that reached a friend at
    // the last level and had not reached the user yet.
    for (int level = 1;; ++level) {
      bool grew = false;
      for (UserId v = 0; v < n; ++v) {
        uint64_t reach = 0;
        if (seen[v] != everyone) {
          for (UserId u : graph.Friends(v)) reach |= frontier[u];
          reach &= ~seen[v];
          seen[v] |= reach;
          grew |= reach != 0;
        }
        next[v] = reach;
      }
      if (!grew) break;
      record(base, next, level);
      frontier.swap(next);
    }
  }
  return hops;
}

}  // namespace gpssn
