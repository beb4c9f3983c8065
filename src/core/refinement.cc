#include "core/refinement.h"

#include <algorithm>
#include <bit>
#include <set>

#include "common/bitvector.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/scores.h"

namespace gpssn {

namespace {

// Sparse view of an interest vector: the nonzero (topic, weight) entries.
// Real interest vectors hold a handful of topics, so pairwise scores via
// sorted-merge are ~25x cheaper than dense loops.
struct SparseInterests {
  std::vector<std::pair<int, double>> entries;  // Sorted by topic.
  int dim = 0;

  static SparseInterests From(std::span<const double> w) {
    SparseInterests out;
    out.dim = static_cast<int>(w.size());
    for (size_t f = 0; f < w.size(); ++f) {
      if (w[f] > 0.0) out.entries.emplace_back(static_cast<int>(f), w[f]);
    }
    return out;
  }
};

// UserSimilarity over two sparse vectors, bit for bit. A topic outside
// both supports contributes a zero term, and adding zero leaves a lane
// unchanged, so accumulating the remaining terms into lane f mod
// kScoreLanes in ascending f reproduces the dense 4-lane order. The
// Jaccard denominator sums max over the union of the two supports.
double SparseSimilarity(InterestMetric metric, const SparseInterests& a,
                        const SparseInterests& b) {
  double dot[kScoreLanes] = {};
  double min_sum[kScoreLanes] = {};
  double max_sum[kScoreLanes] = {};
  int common_support = 0;
  auto one_sided = [&](const std::pair<int, double>& e) {
    max_sum[e.first % kScoreLanes] += e.second;
  };
  size_t i = 0, j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    const auto& [fa, wa] = a.entries[i];
    const auto& [fb, wb] = b.entries[j];
    if (fa < fb) {
      one_sided(a.entries[i++]);
    } else if (fa > fb) {
      one_sided(b.entries[j++]);
    } else {
      const size_t lane = fa % kScoreLanes;
      dot[lane] += wa * wb;
      min_sum[lane] += std::min(wa, wb);
      max_sum[lane] += std::max(wa, wb);
      ++common_support;
      ++i;
      ++j;
    }
  }
  for (; i < a.entries.size(); ++i) one_sided(a.entries[i]);
  for (; j < b.entries.size(); ++j) one_sided(b.entries[j]);
  auto combine = [](const double* l) { return (l[0] + l[1]) + (l[2] + l[3]); };
  switch (metric) {
    case InterestMetric::kDotProduct:
      return combine(dot);
    case InterestMetric::kJaccard: {
      const double den = combine(max_sum);
      return den > 0.0 ? combine(min_sum) / den : 1.0;
    }
    case InterestMetric::kHamming: {
      if (a.dim == 0) return 1.0;
      const int mismatches = static_cast<int>(a.entries.size()) +
                             static_cast<int>(b.entries.size()) -
                             2 * common_support;
      return 1.0 - static_cast<double>(mismatches) / a.dim;
    }
  }
  return 0.0;
}

// The count-based core of Corollary 2 with per-user early termination.
// `fails(i, j)` evaluates the pairwise predicate for candidate positions
// i < j. A user's decision is FINAL as soon as its failure count reaches
// the threshold (removal certain) or cannot reach it with the pairs still
// pending (kept certain); the issuer's decision (kept) is final from the
// start. A pair is skipped only when BOTH endpoints are final, so every
// still-open user sees every one of its pairs — the resulting removed set
// is exactly the one full evaluation produces, at a fraction of the pair
// evaluations.
template <typename FailFn>
void Corollary2Counts(const GpssnQuery& query,
                      const std::vector<UserId>& candidates,
                      int64_t fail_threshold, FailFn&& fails,
                      std::vector<int64_t>* failures) {
  const size_t count = candidates.size();
  std::vector<int64_t> pending(count, static_cast<int64_t>(count) - 1);
  std::vector<char> decided(count, 0);
  size_t undecided = count;
  auto update = [&](size_t k) {
    if (decided[k]) return;
    if (candidates[k] == query.issuer ||
        (*failures)[k] >= fail_threshold ||
        (*failures)[k] + pending[k] < fail_threshold) {
      decided[k] = 1;
      --undecided;
    }
  };
  for (size_t k = 0; k < count; ++k) update(k);
  for (size_t i = 0; i < count && undecided > 0; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      if (decided[i] && decided[j]) continue;
      if (fails(i, j)) {
        ++(*failures)[i];
        ++(*failures)[j];
      }
      --pending[i];
      --pending[j];
      update(i);
      update(j);
      if (undecided == 0) break;
    }
  }
}

}  // namespace

void ApplyCorollary2(const SocialNetwork& social, const GpssnQuery& query,
                     std::vector<UserId>* candidates, QueryStats* stats,
                     SocialScratch* scratch) {
  const size_t count = candidates->size();
  if (count == 0) return;
  // fail_threshold = |S'| − τ + 1 (Corollary 2).
  const int64_t fail_threshold =
      static_cast<int64_t>(count) - query.tau + 1;
  if (fail_threshold <= 0) return;
  std::vector<int64_t> failures(count, 0);
  if (scratch != nullptr && scratch->built()) {
    std::vector<int> sidx(count);
    for (size_t i = 0; i < count; ++i) {
      sidx[i] = scratch->IndexOf((*candidates)[i]);
      GPSSN_CHECK(sidx[i] >= 0);
    }
    Corollary2Counts(
        query, *candidates, fail_threshold,
        [&](size_t i, size_t j) {
          return !scratch->PairPasses(sidx[i], sidx[j]);
        },
        &failures);
  } else {
    std::vector<SparseInterests> sparse(count);
    for (size_t i = 0; i < count; ++i) {
      sparse[i] = SparseInterests::From(social.Interests((*candidates)[i]));
    }
    Corollary2Counts(
        query, *candidates, fail_threshold,
        [&](size_t i, size_t j) {
          return SparseSimilarity(query.metric, sparse[i], sparse[j]) <
                 query.gamma;
        },
        &failures);
  }
  std::vector<UserId> kept;
  kept.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const UserId u = (*candidates)[i];
    if (u != query.issuer && failures[i] >= fail_threshold) {
      if (stats != nullptr) ++stats->users_pruned_corollary2;
      continue;
    }
    kept.push_back(u);
  }
  *candidates = std::move(kept);
}

namespace {

/// Shared state of the ESU-style enumeration.
class GroupEnumerator {
 public:
  GroupEnumerator(const SocialNetwork& social, const GpssnQuery& query,
                  const std::vector<UserId>& candidates, int64_t max_groups,
                  std::vector<std::vector<UserId>>* out)
      : social_(social),
        query_(query),
        max_groups_(max_groups),
        out_(out),
        in_candidates_(social.num_users(), false),
        seen_(social.num_users(), false),
        sparse_(social.num_users()) {
    for (UserId u : candidates) in_candidates_[u] = true;
    in_candidates_[query.issuer] = true;
    for (UserId u = 0; u < social.num_users(); ++u) {
      if (in_candidates_[u]) {
        sparse_[u] = SparseInterests::From(social.Interests(u));
      }
    }
  }

  /// Returns false when truncated by max_groups.
  bool Run() {
    sub_.push_back(query_.issuer);
    seen_[query_.issuer] = true;
    std::vector<UserId> ext;
    for (UserId v : social_.Friends(query_.issuer)) {
      if (in_candidates_[v] && !seen_[v]) {
        seen_[v] = true;
        ext.push_back(v);
        rollback_.push_back(v);
      }
    }
    const bool complete = Extend(&ext);
    return complete;
  }

 private:
  bool Extend(std::vector<UserId>* ext) {
    if (static_cast<int>(sub_.size()) == query_.tau) {
      std::vector<UserId> group = sub_;
      std::sort(group.begin(), group.end());
      out_->push_back(std::move(group));
      return static_cast<int64_t>(out_->size()) < max_groups_;
    }
    // ESU: repeatedly take one extension vertex; sibling branches never see
    // it again (uniqueness), and its exclusive neighbors join the extension.
    std::vector<UserId> local = *ext;
    while (!local.empty()) {
      const UserId w = local.back();
      local.pop_back();
      // Pairwise interest predicate: any group containing w must pass γ
      // against every current member.
      bool compatible = true;
      for (UserId member : sub_) {
        if (SparseSimilarity(query_.metric, sparse_[w], sparse_[member]) <
            query_.gamma) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;

      // Exclusive neighbors of w (never seen along this path).
      const size_t rollback_mark = rollback_.size();
      std::vector<UserId> next = local;
      for (UserId v : social_.Friends(w)) {
        if (in_candidates_[v] && !seen_[v]) {
          seen_[v] = true;
          rollback_.push_back(v);
          next.push_back(v);
        }
      }
      sub_.push_back(w);
      const bool keep_going = Extend(&next);
      sub_.pop_back();
      // Un-see the vertices this branch introduced (w itself stays seen for
      // the remaining siblings — ESU uniqueness).
      while (rollback_.size() > rollback_mark) {
        seen_[rollback_.back()] = false;
        rollback_.pop_back();
      }
      if (!keep_going) return false;
    }
    return true;
  }

  const SocialNetwork& social_;
  const GpssnQuery& query_;
  int64_t max_groups_;
  std::vector<std::vector<UserId>>* out_;
  std::vector<bool> in_candidates_;
  std::vector<bool> seen_;
  std::vector<SparseInterests> sparse_;
  std::vector<UserId> sub_;
  std::vector<UserId> rollback_;
};

/// Bitset variant of the ESU enumeration over a SocialScratch: everything
/// is candidate-local (indices, not user ids), extension candidates come
/// from word-parallel adjacency ∧ active ∧ ¬seen sweeps, and the pairwise
/// predicate hits the memo. Scratch candidates are id-sorted, so ascending
/// bit iteration appends extension vertices in exactly the order the
/// sparse enumerator reads them off the CSR friend lists — the emitted
/// group sequence is identical.
class ScratchGroupEnumerator {
 public:
  ScratchGroupEnumerator(const GpssnQuery& query, SocialScratch* scratch,
                         const std::vector<UserId>& candidates,
                         int64_t max_groups,
                         std::vector<std::vector<UserId>>* out)
      : query_(query),
        scratch_(scratch),
        max_groups_(max_groups),
        out_(out),
        active_(scratch->size()),
        seen_(scratch->size()) {
    for (UserId u : candidates) {
      const int i = scratch->IndexOf(u);
      GPSSN_CHECK(i >= 0);
      active_.Set(static_cast<size_t>(i));
    }
    issuer_ = scratch->IndexOf(query.issuer);
    GPSSN_CHECK(issuer_ >= 0);
    active_.Set(static_cast<size_t>(issuer_));
  }

  bool Run() {
    sub_.push_back(issuer_);
    seen_.Set(static_cast<size_t>(issuer_));
    std::vector<int> ext;
    AppendExclusiveNeighbors(issuer_, &ext);
    return Extend(&ext);
  }

 private:
  // Appends (adjacency[w] ∧ active ∧ ¬seen) to *ext in ascending index
  // order, marking each appended vertex seen and recording it for
  // rollback.
  void AppendExclusiveNeighbors(int w, std::vector<int>* ext) {
    const uint64_t* adj = scratch_->AdjacencyRow(w);
    for (size_t word = 0; word < scratch_->adj_words(); ++word) {
      uint64_t bits = adj[word] & active_.Word(word) & ~seen_.Word(word);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const int v = static_cast<int>(word * 64) + b;
        seen_.Set(static_cast<size_t>(v));
        rollback_.push_back(v);
        ext->push_back(v);
      }
    }
  }

  bool Extend(std::vector<int>* ext) {
    if (static_cast<int>(sub_.size()) == query_.tau) {
      std::vector<UserId> group;
      group.reserve(sub_.size());
      for (int i : sub_) group.push_back(scratch_->UserAt(i));
      std::sort(group.begin(), group.end());
      out_->push_back(std::move(group));
      return static_cast<int64_t>(out_->size()) < max_groups_;
    }
    std::vector<int> local = *ext;
    while (!local.empty()) {
      const int w = local.back();
      local.pop_back();
      bool compatible = true;
      for (int member : sub_) {
        if (!scratch_->PairPasses(w, member)) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;

      const size_t rollback_mark = rollback_.size();
      std::vector<int> next = local;
      AppendExclusiveNeighbors(w, &next);
      sub_.push_back(w);
      const bool keep_going = Extend(&next);
      sub_.pop_back();
      while (rollback_.size() > rollback_mark) {
        seen_.Clear(static_cast<size_t>(rollback_.back()));
        rollback_.pop_back();
      }
      if (!keep_going) return false;
    }
    return true;
  }

  const GpssnQuery& query_;
  SocialScratch* scratch_;
  int64_t max_groups_;
  std::vector<std::vector<UserId>>* out_;
  DynamicBitset active_;
  DynamicBitset seen_;
  int issuer_ = -1;
  std::vector<int> sub_;
  std::vector<int> rollback_;
};

}  // namespace

bool EnumerateGroups(const SocialNetwork& social, const GpssnQuery& query,
                     const std::vector<UserId>& candidates, int64_t max_groups,
                     std::vector<std::vector<UserId>>* out,
                     SocialScratch* scratch) {
  GPSSN_CHECK(out != nullptr);
  out->clear();
  if (query.tau == 1) {
    out->push_back({query.issuer});
    return true;
  }
  if (scratch != nullptr && scratch->built() &&
      scratch->IndexOf(query.issuer) >= 0) {
    ScratchGroupEnumerator enumerator(query, scratch, candidates, max_groups,
                                      out);
    return enumerator.Run();
  }
  GroupEnumerator enumerator(social, query, candidates, max_groups, out);
  return enumerator.Run();
}

void SampleGroups(const SocialNetwork& social, const GpssnQuery& query,
                  const std::vector<UserId>& candidates, int samples,
                  uint64_t seed, std::vector<std::vector<UserId>>* out) {
  GPSSN_CHECK(out != nullptr);
  out->clear();
  if (query.tau == 1) {
    out->push_back({query.issuer});
    return;
  }
  std::vector<bool> in_candidates(social.num_users(), false);
  for (UserId u : candidates) in_candidates[u] = true;
  in_candidates[query.issuer] = true;

  Rng rng(seed);
  std::set<std::vector<UserId>> unique;
  for (int s = 0; s < samples; ++s) {
    std::vector<UserId> group = {query.issuer};
    std::vector<UserId> frontier;
    auto add_frontier = [&](UserId u) {
      for (UserId v : social.Friends(u)) {
        if (!in_candidates[v]) continue;
        if (std::find(group.begin(), group.end(), v) != group.end()) continue;
        frontier.push_back(v);
      }
    };
    add_frontier(query.issuer);
    while (static_cast<int>(group.size()) < query.tau && !frontier.empty()) {
      const size_t pick = rng.NextBounded(frontier.size());
      const UserId w = frontier[pick];
      frontier.erase(frontier.begin() + pick);
      if (std::find(group.begin(), group.end(), w) != group.end()) continue;
      bool compatible = true;
      const auto ww = social.Interests(w);
      for (UserId member : group) {
        if (UserSimilarity(query.metric, ww, social.Interests(member)) < query.gamma) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      group.push_back(w);
      add_frontier(w);
    }
    if (static_cast<int>(group.size()) == query.tau) {
      std::sort(group.begin(), group.end());
      unique.insert(std::move(group));
    }
  }
  out->assign(unique.begin(), unique.end());
}

void PlanGroups(const SocialNetwork& social, const GpssnQuery& query,
                const QueryOptions& options, SocialScratch* scratch,
                std::vector<UserId>* users,
                std::vector<std::vector<UserId>>* groups, QueryStats* stats) {
  SocialScratch* kernels = nullptr;
  if (options.pruning.interest_score) {
    if (users->size() <= kScratchMaxCandidates) {
      scratch->Build(social, query, *users);
      kernels = scratch;
    }
    ApplyCorollary2(social, query, users, stats, kernels);
  }
  if (options.subset_sampling) {
    SampleGroups(social, query, *users, options.subset_samples, options.seed,
                 groups);
  } else if (!EnumerateGroups(social, query, *users, options.max_groups,
                              groups, kernels)) {
    stats->truncated = true;
  }
  stats->groups_enumerated = groups->size();
  if (kernels != nullptr) {
    stats->interest_pairs_scored += kernels->pairs_scored();
  }
}

}  // namespace gpssn
