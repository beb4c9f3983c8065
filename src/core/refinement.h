// Copyright 2026 The gpssn Authors.
//
// Refinement-phase helpers of Algorithm 2 (lines 29-31): the Corollary 2
// count-based user pruning and the enumeration of connected τ-subsets S of
// the candidate users that contain u_q and satisfy the pairwise
// interest-score predicate. Exhaustive enumeration uses the ESU
// (enumerate-subgraphs) scheme, emitting every qualifying group exactly
// once; the optional subset-sampling mode (the paper's future-work
// extension) randomly grows connected groups instead.

#ifndef GPSSN_CORE_REFINEMENT_H_
#define GPSSN_CORE_REFINEMENT_H_

#include <vector>

#include "core/options.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "socialnet/social_graph.h"

namespace gpssn {

/// Corollary 2: a user u_k failing the pairwise interest test against at
/// least (|S'| − τ + 1) candidates cannot appear in any answer group and is
/// removed. The issuer is never removed. Worst-case quadratic in
/// |candidates|, but per-user failure counters terminate each user early
/// once its decision is certain (removal reached, or too few pairs left to
/// reach it), and pairs between two decided users are skipped outright —
/// the removed set is provably the one full evaluation would produce.
/// When `scratch` is non-null (built over a superset of `candidates`),
/// pair tests go through its memo and stay cached for the group
/// enumeration; null runs the sparse-merge kernels. Both compute
/// Interest_Score in the 4-lane order of core/scores.h, so they remove the
/// same users.
void ApplyCorollary2(const SocialNetwork& social, const GpssnQuery& query,
                     std::vector<UserId>* candidates, QueryStats* stats,
                     SocialScratch* scratch = nullptr);

/// Enumerates all connected groups S (|S| = τ, u_q ∈ S ⊆ candidates ∪
/// {u_q}) whose members pairwise satisfy Interest_Score >= γ. Each group is
/// emitted exactly once (sorted ids). Returns false when `max_groups` was
/// hit (output truncated). With a non-null `scratch` (candidates must all
/// be scratch members) the ESU extension tests run over candidate-local
/// adjacency bitsets and the memoized pair scores; the emitted group
/// sequence is identical to the sparse path (id-ascending bit order equals
/// the CSR Friends() order, and both paths compute the same pair scores).
bool EnumerateGroups(const SocialNetwork& social, const GpssnQuery& query,
                     const std::vector<UserId>& candidates, int64_t max_groups,
                     std::vector<std::vector<UserId>>* out,
                     SocialScratch* scratch = nullptr);

/// Subset-sampling alternative: `samples` random connected growths from
/// u_q; deduplicated. Never truncates (sampling is inherently partial).
void SampleGroups(const SocialNetwork& social, const GpssnQuery& query,
                  const std::vector<UserId>& candidates, int samples,
                  uint64_t seed, std::vector<std::vector<UserId>>* out);

/// Largest candidate set PlanGroups builds a SocialScratch for: it bounds
/// the O(n²) pair memo and adjacency bitsets at about 10 MiB.
inline constexpr size_t kScratchMaxCandidates = 4096;

/// The Plan stage of a query (Algorithm 2 lines 29-30), shared by
/// GpssnProcessor and the serving coordinator. `users` holds the gathered
/// candidates in I_S leaf order, the issuer included. With interest
/// pruning on, Corollary 2 shrinks `users` in place; then `groups`
/// receives the enumerated — or, with options.subset_sampling, sampled —
/// groups. The social kernel follows from cost: Corollary 2 scores most of
/// the n(n−1)/2 candidate pairs, so when it runs over at most
/// kScratchMaxCandidates users PlanGroups first builds `scratch` over them
/// and both stages share its pair memo and adjacency bitsets; otherwise
/// the enumerator touches few pairs and the sparse kernels run. Either way
/// the groups are the same. Records groups_enumerated,
/// interest_pairs_scored and a max_groups truncation in `stats`
/// (required).
void PlanGroups(const SocialNetwork& social, const GpssnQuery& query,
                const QueryOptions& options, SocialScratch* scratch,
                std::vector<UserId>* users,
                std::vector<std::vector<UserId>>* groups, QueryStats* stats);

}  // namespace gpssn

#endif  // GPSSN_CORE_REFINEMENT_H_
