#include "core/refinement.h"

#include <algorithm>
#include <bit>

#include "common/bitvector.h"
#include "common/macros.h"
#include "common/timer.h"
#include "core/scores.h"

namespace gpssn {

namespace {

// Corollary 2 as a partner search. A user failing the pair test against at
// least |S'| − τ + 1 of the |S'| candidates passes it with at most τ − 2
// others, so a user stays iff it finds τ − 1 candidates it passes with.
// Each non-issuer user searches for them and stops once it has: first over
// its topics' posting lists (a candidate in several of them is tried once),
// then over the candidates that share no topic with it, which can pass too
// (under Hamming, at γ = 0, or for two empty runs under Jaccard). The
// removed set is the full count's. `passes(i, j)` is the pair test of
// candidate positions i and j.
template <typename PassFn>
void KeepUsersWithPartners(const SocialNetwork& social,
                           const GpssnQuery& query, TopicPostings* lists,
                           std::vector<UserId>* candidates, QueryStats* stats,
                           PassFn&& passes) {
  const std::vector<UserId>& users = *candidates;
  const auto wanted = static_cast<size_t>(query.tau - 1);
  const auto count = static_cast<int32_t>(users.size());
  auto finds_partners = [&](int32_t i) {
    lists->BeginSearch();
    lists->Try(i);  // A user is not its own partner.
    size_t found = 0;
    auto passes_new = [&](int32_t j) {
      return lists->Try(j) && passes(i, j) && ++found == wanted;
    };
    for (KeywordId f : social.Run(users[i]).topics) {
      for (int32_t j : lists->Holders(f)) {
        if (passes_new(j)) return true;
      }
    }
    for (int32_t j = 0; j < count; ++j) {
      if (passes_new(j)) return true;
    }
    return false;
  };
  std::vector<UserId> kept;
  kept.reserve(users.size());
  for (int32_t i = 0; i < count; ++i) {
    if (users[i] != query.issuer && !finds_partners(i)) {
      if (stats != nullptr) ++stats->users_pruned_corollary2;
      continue;
    }
    kept.push_back(users[i]);
  }
  *candidates = std::move(kept);
}

}  // namespace

void ApplyCorollary2(const SocialNetwork& social, const GpssnQuery& query,
                     std::vector<UserId>* candidates, QueryStats* stats,
                     SocialScratch* scratch) {
  // Nothing goes at τ = 1, where no partner is needed, nor with fewer than
  // τ candidates, where the failure threshold |S'| − τ + 1 is not positive
  // and Corollary 2 does not apply (no group can be formed anyway).
  if (query.tau <= 1 ||
      candidates->size() < static_cast<size_t>(query.tau)) {
    return;
  }
  if (scratch != nullptr && scratch->built()) {
    std::vector<int> sidx(candidates->size());
    for (size_t i = 0; i < candidates->size(); ++i) {
      sidx[i] = scratch->IndexOf((*candidates)[i]);
      GPSSN_CHECK(sidx[i] >= 0);
    }
    TopicPostings* lists = scratch->postings();
    lists->Build(social, *candidates);
    const uint64_t scored = scratch->pairs_scored();
    KeepUsersWithPartners(social, query, lists, candidates, stats,
                          [&](int32_t i, int32_t j) {
                            return scratch->PairPasses(sidx[i], sidx[j]);
                          });
    if (stats != nullptr) {
      stats->interest_pairs_scored += scratch->pairs_scored() - scored;
    }
    return;
  }
  TopicPostings lists;
  lists.Build(social, *candidates);
  const std::vector<UserId>& users = *candidates;
  uint64_t scored = 0;
  KeepUsersWithPartners(
      social, query, &lists, candidates, stats, [&](int32_t i, int32_t j) {
        ++scored;
        return RunSimilarity(query.metric, social.Run(users[i]),
                             social.Run(users[j]), social.num_topics()) >=
               query.gamma;
      });
  if (stats != nullptr) stats->interest_pairs_scored += scored;
}

namespace {

/// The ESU (enumerate-subgraphs) recursion over a view of the candidates.
/// Each step takes the last extension vertex w (sibling branches never see
/// it again — ESU uniqueness), tests it against every member, adds its
/// exclusive (never-seen) candidate neighbours to the extension, recurses,
/// then un-sees the vertices the branch introduced. Every level's
/// extension set lives in one stack, `ext_`: a level owns the suffix from
/// its offset, and a child's set (the parent's remaining set, then w's
/// exclusive neighbours) is appended after it and truncated on return.
/// The view supplies the three operations its representation does its own
/// way:
///   ForEachUnseenNeighbor(w, seen, fn)  fn(v) for every candidate
///       neighbour v of w outside `seen`, in CSR Friends() order;
///   PairPasses(a, b)  the pairwise Interest_Score >= γ test;
///   UserOf(v)  the user id of vertex v.
template <typename View>
class EsuEnumerator {
 public:
  EsuEnumerator(View* view, int tau, int64_t max_groups,
                std::vector<std::vector<UserId>>* out)
      : view_(view),
        tau_(tau),
        max_groups_(max_groups),
        out_(out),
        seen_(view->num_vertices()) {}

  /// Emits every group grown from `root` (the first extension vertex);
  /// false when truncated by max_groups.
  bool Run(int root) {
    seen_.Set(static_cast<size_t>(root));
    ext_.assign(1, root);
    return Extend(0);
  }

 private:
  // Appends w's never-seen candidate neighbours to the extension stack,
  // marking each one seen and recording it for rollback.
  void AppendExclusiveNeighbors(int w) {
    view_->ForEachUnseenNeighbor(w, seen_, [&](int v) {
      seen_.Set(static_cast<size_t>(v));
      rollback_.push_back(v);
      ext_.push_back(v);
    });
  }

  // Grows sub_ from the extension set ext_[begin, end of stack).
  bool Extend(size_t begin) {
    if (static_cast<int>(sub_.size()) == tau_) {
      std::vector<UserId> group;
      group.reserve(sub_.size());
      for (int v : sub_) group.push_back(view_->UserOf(v));
      std::sort(group.begin(), group.end());
      out_->push_back(std::move(group));
      return static_cast<int64_t>(out_->size()) < max_groups_;
    }
    while (ext_.size() > begin) {
      const int w = ext_.back();
      ext_.pop_back();
      // Pairwise interest predicate: any group containing w must pass γ
      // against every current member.
      const auto passes = [&](int m) { return view_->PairPasses(w, m); };
      if (!std::all_of(sub_.begin(), sub_.end(), passes)) continue;

      const size_t end = ext_.size();
      const size_t rollback_mark = rollback_.size();
      for (size_t i = begin; i < end; ++i) {
        const int v = ext_[i];  // push_back may reallocate under ext_[i].
        ext_.push_back(v);
      }
      AppendExclusiveNeighbors(w);
      sub_.push_back(w);
      const bool keep_going = Extend(end);
      sub_.pop_back();
      ext_.resize(end);
      // w itself stays seen for the remaining siblings (ESU uniqueness).
      while (rollback_.size() > rollback_mark) {
        seen_.Clear(static_cast<size_t>(rollback_.back()));
        rollback_.pop_back();
      }
      if (!keep_going) return false;
    }
    return true;
  }

  View* view_;
  int tau_;
  int64_t max_groups_;
  std::vector<std::vector<UserId>>* out_;
  DynamicBitset seen_;
  std::vector<int> sub_;
  std::vector<int> ext_;  // Every level's extension set, stacked.
  std::vector<int> rollback_;
};

/// CSR view: vertices are user ids, neighbours are the Friends() that are
/// candidates, and pairs merge the two users' runs.
class SparseView {
 public:
  SparseView(const SocialNetwork& social, const GpssnQuery& query,
             const std::vector<UserId>& candidates)
      : social_(social),
        query_(query),
        in_candidates_(social.num_users(), false) {
    for (UserId u : candidates) in_candidates_[u] = true;
    in_candidates_[query.issuer] = true;
  }

  size_t num_vertices() const { return in_candidates_.size(); }

  template <typename Fn>
  void ForEachUnseenNeighbor(int w, const DynamicBitset& seen,
                             Fn&& fn) const {
    for (UserId v : social_.Friends(w)) {
      if (in_candidates_[v] && !seen.Test(static_cast<size_t>(v))) fn(v);
    }
  }

  bool PairPasses(int a, int b) const {
    return RunSimilarity(query_.metric, social_.Run(a), social_.Run(b),
                         social_.num_topics()) >= query_.gamma;
  }

  UserId UserOf(int v) const { return v; }

 private:
  const SocialNetwork& social_;
  const GpssnQuery& query_;
  std::vector<bool> in_candidates_;
};

/// Bitset view over a SocialScratch: vertices are candidate-local indices,
/// neighbours come from word-parallel adjacency ∧ active ∧ ¬seen sweeps,
/// and pairs hit the memo. Scratch candidates are id-sorted, so ascending
/// bit order is the CSR Friends() order and the emitted group sequence is
/// the sparse view's.
class ScratchView {
 public:
  ScratchView(SocialScratch* scratch, const std::vector<UserId>& candidates,
              int issuer)
      : scratch_(scratch), active_(scratch->size()) {
    for (UserId u : candidates) {
      const int i = scratch->IndexOf(u);
      GPSSN_CHECK(i >= 0);
      active_.Set(static_cast<size_t>(i));
    }
    active_.Set(static_cast<size_t>(issuer));
  }

  size_t num_vertices() const { return active_.size(); }

  template <typename Fn>
  void ForEachUnseenNeighbor(int w, const DynamicBitset& seen,
                             Fn&& fn) const {
    const uint64_t* adj = scratch_->AdjacencyRow(w);
    for (size_t word = 0; word < scratch_->adj_words(); ++word) {
      uint64_t bits = adj[word] & active_.Word(word) & ~seen.Word(word);
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        fn(static_cast<int>(word * 64) + b);
      }
    }
  }

  bool PairPasses(int a, int b) { return scratch_->PairPasses(a, b); }

  UserId UserOf(int v) const { return scratch_->UserAt(v); }

 private:
  SocialScratch* scratch_;
  DynamicBitset active_;
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
  const int issuer =
      scratch != nullptr && scratch->built() ? scratch->IndexOf(query.issuer)
                                             : -1;
  if (issuer >= 0) {
    ScratchView view(scratch, candidates, issuer);
    return EsuEnumerator(&view, query.tau, max_groups, out).Run(issuer);
  }
  SparseView view(social, query, candidates);
  return EsuEnumerator(&view, query.tau, max_groups, out).Run(query.issuer);
}

void PlanGroups(const SocialNetwork& social, const GpssnQuery& query,
                const QueryOptions& options, SocialScratch* scratch,
                std::vector<UserId>* users,
                std::vector<std::vector<UserId>>* groups, QueryStats* stats) {
  SocialScratch* kernels = nullptr;
  WallTimer timer;
  if (options.pruning.interest_score) {
    if (users->size() <= kScratchMaxCandidates) {
      scratch->Build(social, query, *users);
      kernels = scratch;
    }
    ApplyCorollary2(social, query, users, stats, kernels);
  }
  stats->corollary2_seconds += timer.ElapsedSeconds();
  timer.Restart();
  const uint64_t scored = kernels != nullptr ? kernels->pairs_scored() : 0;
  if (!EnumerateGroups(social, query, *users, QueryOptions::max_groups,
                       groups, kernels)) {
    stats->truncated = true;
  }
  stats->enumerate_seconds += timer.ElapsedSeconds();
  stats->groups_enumerated = groups->size();
  if (kernels != nullptr) {
    stats->interest_pairs_scored += kernels->pairs_scored() - scored;
  }
}

}  // namespace gpssn
