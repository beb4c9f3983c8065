#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <tuple>

#include "common/macros.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/pruning.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "roadnet/distance_cache.h"

namespace gpssn {

namespace {

// Min-heap entry of the I_R traversal: (key, node), key = lb of the
// maximum distance (Eq. 17).
using HeapEntry = std::pair<double, RNodeId>;
struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.first > b.first;
  }
};
using RoadHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater>;

// Accrues elapsed wall time into *out on destruction; attributes phase
// time across the multiple exit paths of the stages.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(double* out) : out_(out) {}
  ~ScopedPhaseTimer() { *out_ += timer_.ElapsedSeconds(); }
  GPSSN_DISALLOW_COPY_AND_MOVE(ScopedPhaseTimer);

 private:
  WallTimer timer_;
  double* out_;
};

// Cooperative interruption (deadline / external cancel), polled at every
// loop boundary of the stages. The longest unpolled stretch is one bounded
// search inside a distance row, which bounds the latency overshoot past a
// deadline.
bool InterruptRequested(const QueryOptions& options) {
  return (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) ||  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
         options.deadline.Expired();
}

// The status of an interrupted stage. An external cancel wins: it implies
// the caller no longer wants the answer regardless of the deadline.
Status InterruptStatus(const QueryOptions& options) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
    return Status::Cancelled("query cancelled");
  }
  return Status::DeadlineExceeded("query deadline exceeded");
}

}  // namespace

bool RanksBefore(const RankedAnswer& a, const RankedAnswer& b) {
  return std::tie(a.answer.max_dist, a.center_worst, a.answer.center,
                  a.group_index) < std::tie(b.answer.max_dist, b.center_worst,
                                            b.answer.center, b.group_index);
}

GpssnProcessor::GpssnProcessor(const PoiIndex* poi_index,
                               const SocialIndex* social_index)
    : poi_index_(poi_index),
      social_index_(social_index),
      bfs_(&poi_index->ssn().social()),
      default_backend_(MakeDijkstraBackend(&poi_index->ssn().road(),
                                           &poi_index->ssn().pois())) {
  GPSSN_CHECK(poi_index != nullptr && social_index != nullptr);
  GPSSN_CHECK(&poi_index->ssn() == &social_index->ssn());
  default_engine_ = default_backend_->CreateEngine();
#ifdef GPSSN_AUDIT
  // Audit builds: refuse to run queries over structurally corrupt indexes,
  // and default every query to the abort-on-violation soundness sampler.
  AuditIndexesOrDie(*poi_index, *social_index);
  default_auditor_ =
      std::make_unique<PruningAuditor>(poi_index, social_index);
#endif
}

GpssnProcessor::~GpssnProcessor() = default;

DistanceEngine* GpssnProcessor::EngineFor(const QueryOptions& options) {
  if (options.distance_backend == nullptr) return default_engine_.get();
  if (plugged_source_ != options.distance_backend) {
    plugged_engine_ = options.distance_backend->CreateEngine();
    plugged_source_ = options.distance_backend;
  }
  return plugged_engine_.get();
}

PruningAuditor* GpssnProcessor::AuditorFor(const QueryOptions& options) const {
  return options.auditor != nullptr ? options.auditor : default_auditor_.get();
}

void GpssnProcessor::RefineScratch::BeginQuery(size_t num_users,
                                               size_t num_pois) {
  if (poi_stamp.size() < num_pois) {
    poi_stamp.resize(num_pois, 0);
    poi_slot.resize(num_pois, 0);
  }
  if (user_stamp.size() < num_users) {
    user_stamp.resize(num_users, 0);
    user_member.resize(num_users, 0);
  }
  ++generation;
  if (generation == 0) {  // Stamp wrap-around: hard reset.
    std::fill(poi_stamp.begin(), poi_stamp.end(), 0);
    std::fill(user_stamp.begin(), user_stamp.end(), 0);
    generation = 1;
  }
  needed.clear();
  needed_positions.clear();
  centers.clear();
  balls.clear();
  masks.clear();
  num_members = 0;
  rows.clear();
}

void GpssnProcessor::RefineScratch::AddMember(UserId u) {
  if (user_stamp[u] != generation) {
    user_stamp[u] = generation;
    user_member[u] = num_members++;
  }
}

Status GpssnProcessor::ValidateQuery(const GpssnQuery& query) const {
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  if (query.issuer < 0 || query.issuer >= ssn.num_users()) {
    return Status::InvalidArgument("query issuer out of range");
  }
  if (query.tau < 1 || query.tau > ssn.num_users()) {
    return Status::InvalidArgument("group size tau out of range");
  }
  // Negated so that NaN fails too: every score comparison against a NaN
  // threshold is false.
  if (!(query.gamma >= 0.0 && query.theta >= 0.0)) {
    return Status::InvalidArgument("negative or NaN score threshold");
  }
  switch (query.metric) {
    case InterestMetric::kDotProduct:
    case InterestMetric::kJaccard:
    case InterestMetric::kHamming:
      break;
    default:  // A raw wire value no metric has.
      return Status::InvalidArgument("unknown interest metric");
  }
  // Negated so that a NaN radius fails too: Refine filters each stored
  // B(o, r_max) by `radius`.
  if (!(query.radius >= poi_index_->options().r_min &&
        query.radius <= poi_index_->options().r_max)) {
    return Status::InvalidArgument(
        "radius outside the index's [r_min, r_max] envelope");
  }
  return Status::OK();
}

Result<GpssnAnswer> GpssnProcessor::Execute(const GpssnQuery& query,
                                            const QueryOptions& options,
                                            QueryStats* stats) {
  GPSSN_ASSIGN_OR_RETURN(std::vector<GpssnAnswer> top,
                         ExecuteTopK(query, /*k=*/1, options, stats));
  return top.empty() ? GpssnAnswer() : std::move(top.front());
}

Result<std::vector<GpssnAnswer>> GpssnProcessor::ExecuteTopK(
    const GpssnQuery& query, int k, const QueryOptions& options,
    QueryStats* stats) {
  if (k < 1) return Status::InvalidArgument("top-k requires k >= 1");
  GPSSN_RETURN_NOT_OK(ValidateQuery(query));
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;

  // The δ cut is only safe for the single optimum; disable it for k > 1.
  QueryOptions run = options;
  if (k > 1) run.pruning.road_distance = false;
  std::vector<RankedAnswer> best;
  double final_delta = kInfDistance;
  bool delta_cut = false;
  Status status = RunPipeline(query, run, k, out, &final_delta, &delta_cut,
                              &best);

  // δ-cut exactness check (see the header comment): if the cut removed a
  // candidate and the best found objective exceeds the final δ — or
  // nothing was found — re-run without the cut.
  if (status.ok() && delta_cut &&
      (best.empty() ||
       best.front().answer.max_dist > final_delta + 1e-12)) {
    run.pruning.road_distance = false;
    QueryStats rerun_stats;
    std::vector<RankedAnswer> exact;
    status = RunPipeline(query, run, /*top_k=*/1, &rerun_stats, &final_delta,
                         &delta_cut, &exact);
    // Keep the first run's funnel (it describes the indexed fast path) but
    // charge all of the rerun's work.
    out->ChargeWorkFrom(rerun_stats);
    ++out->delta_reruns;
    // Non-strict: on an exact objective tie the rerun's answer wins — it is
    // the discovery-order winner over the FULL (δ-free) candidate set, the
    // same set the sharded serving path evaluates, keeping the two paths'
    // answers identical in the (measure-zero) tie-at-fallback case.
    if (!exact.empty() &&
        (best.empty() ||
         exact.front().answer.max_dist <= best.front().answer.max_dist)) {
      best = std::move(exact);
    }
  }
  out->cpu_seconds = timer.ElapsedSeconds();
  GPSSN_RETURN_NOT_OK(status);
  std::vector<GpssnAnswer> answers;
  answers.reserve(best.size());
  for (RankedAnswer& ranked : best) answers.push_back(std::move(ranked.answer));
  return answers;
}

Result<ShardCandidates> GpssnProcessor::GatherCandidates(
    const GpssnQuery& query, const QueryOptions& options,
    const ShardScope& scope, QueryStats* stats) {
  GPSSN_RETURN_NOT_OK(ValidateQuery(query));
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;
  QueryPlan plan(query, *social_index_, options.buffer_pool_pages);
  Status status = Gather(options, scope, /*single_node=*/false, &plan, out);
  out->io.logical_accesses += plan.pool.stats().logical_accesses;
  out->io.page_misses += plan.pool.stats().page_misses;
  out->cpu_seconds = timer.ElapsedSeconds();
  GPSSN_RETURN_NOT_OK(status);
  ShardCandidates result;
  result.users = std::move(plan.users);
  result.pois = std::move(plan.pois);
  std::sort(result.pois.begin(), result.pois.end());
  result.lower_bound = plan.lower_bound;
  return result;
}

Result<ShardRefineResult> GpssnProcessor::RefineCandidates(
    const GpssnQuery& query, const QueryOptions& options,
    const std::vector<PoiId>& centers,
    const std::vector<std::vector<UserId>>& groups, double incumbent,
    QueryStats* stats) {
  GPSSN_RETURN_NOT_OK(ValidateQuery(query));
  // The ids index the processor's per-POI and per-user arrays.
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  for (PoiId c : centers) {
    if (c < 0 || c >= ssn.num_pois()) {
      return Status::InvalidArgument("refine center out of range");
    }
  }
  for (const std::vector<UserId>& group : groups) {
    for (UserId u : group) {
      if (u < 0 || u >= ssn.num_users()) {
        return Status::InvalidArgument("refine group member out of range");
      }
    }
  }
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;
  QueryPlan plan(query, *social_index_, options.buffer_pool_pages);
  plan.pois = centers;
  std::vector<RankedAnswer> best;
  Status status;
  {
    const ScopedPhaseTimer refine_phase(&out->refine_seconds);
    status = Refine(options, groups, /*top_k=*/1, incumbent, &plan, out, &best);
  }
  // users/pois/groups counters stay 0 here: the coordinator owns the
  // candidate-level counters (the gather stats already carry them), so the
  // merged per-query stats count each candidate exactly once.
  out->io.logical_accesses += plan.pool.stats().logical_accesses;
  out->io.page_misses += plan.pool.stats().page_misses;
  out->cpu_seconds = timer.ElapsedSeconds();
  GPSSN_RETURN_NOT_OK(status);
  return best.empty() ? ShardRefineResult() : std::move(best.front());
}

Status GpssnProcessor::RunPipeline(const GpssnQuery& query,
                                   const QueryOptions& options, int top_k,
                                   QueryStats* stats, double* final_delta,
                                   bool* delta_cut,
                                   std::vector<RankedAnswer>* best) {
  QueryPlan plan(query, *social_index_, options.buffer_pool_pages);
  ShardScope whole;
  whole.social_roots = {social_index_->root()};
  whole.road_roots = {poi_index_->tree().root()};
  Status status = Gather(options, whole, /*single_node=*/true, &plan, stats);
  if (status.ok()) {
    const ScopedPhaseTimer refine_phase(&stats->refine_seconds);
    PlanGroups(poi_index_->ssn().social(), query, options, &social_scratch_,
               &plan.users, &plan.groups, stats);
    status = Refine(options, plan.groups, top_k, kInfDistance, &plan, stats,
                    best);
  }
  stats->io.logical_accesses += plan.pool.stats().logical_accesses;
  stats->io.page_misses += plan.pool.stats().page_misses;
  *final_delta = plan.delta;
  *delta_cut = plan.delta_cut;
  return status;
}

Status GpssnProcessor::Gather(const QueryOptions& options,
                              const ShardScope& scope, bool single_node,
                              QueryPlan* plan, QueryStats* stats) {
  if (InterruptRequested(options)) return InterruptStatus(options);
  const QueryUserContext& ctx = plan->ctx;
  const GpssnQuery& query = ctx.query;
  const SocialNetwork& social = poi_index_->ssn().social();
  const PruningFlags& flags = options.pruning;
  const bool use_delta = single_node && flags.road_distance;
  BufferPool& pool = plan->pool;
  PruningAuditor* auditor = AuditorFor(options);
  double& delta = plan->delta;
  WallTimer descent_timer;

  // Exact hop labels around u_q (Lemma 4 with exact distances): any member
  // of a connected τ-group containing u_q is within τ−1 hops of u_q, so a
  // bounded BFS gives an exact object-level social-distance filter. It runs
  // against the in-memory friendship adjacency (social graphs fit in RAM;
  // the paper's disk-resident structures are the two indexes), so it does
  // not charge page I/O.
  if (flags.social_distance) {
    bfs_.Run(query.issuer, query.tau - 1);
  }

  // I_S frontier. A scope root other than the index root is prune-tested
  // like any child: the single-node descent tests it as its parent's child.
  std::vector<SNodeId> s_frontier;
  auto admit_social = [&](SNodeId id) {
    const SocialIndexNode& node = social_index_->node(id);
    ++stats->social_nodes_visited;
    pool.Access(node.page);
    if (id != social_index_->root()) {
      if (flags.interest_score && PruneSocialNodeInterest(ctx, node)) {
        ++stats->social_nodes_pruned_interest;
        stats->users_pruned_at_index_level += node.subtree_users;
        if (auditor != nullptr) {
          auditor->OnSocialNodePruned(ctx, id, PruneRule::kSocialNodeInterest);
        }
        return;
      }
      if (flags.social_distance && PruneSocialNodeDistance(ctx, node)) {
        ++stats->social_nodes_pruned_distance;
        stats->users_pruned_at_index_level += node.subtree_users;
        if (auditor != nullptr) {
          auditor->OnSocialNodePruned(ctx, id, PruneRule::kSocialNodeDistance);
        }
        return;
      }
    }
    s_frontier.push_back(id);
  };

  // Upper bound of dist(candidate user, rp_k) over the current S-side
  // frontier (used by Eq. 16 / δ updates). Always covers u_q.
  const int h = poi_index_->pivots().num_pivots();
  std::vector<double> s_ub_rp;
  auto refresh_s_ub = [&]() {
    s_ub_rp = ctx.rp_dist;
    for (SNodeId id : s_frontier) {
      const SocialIndexNode& node = social_index_->node(id);
      for (int k = 0; k < h; ++k) {
        s_ub_rp[k] = std::max(s_ub_rp[k], node.ub_rp[k]);
      }
    }
  };

  // I_R heap. Like the I_S side, only the index root enters untested.
  RoadHeap heap;
  auto admit_road = [&](RNodeId id, RoadHeap* into) {
    const PoiNodeAug& aug = poi_index_->node_aug(id);
    if (flags.match_score && PruneRoadNodeMatch(ctx, aug)) {
      ++stats->road_nodes_pruned_match;
      stats->pois_pruned_at_index_level += aug.subtree_pois;
      if (auditor != nullptr) auditor->OnRoadNodeMatchPruned(ctx, id);
      return;
    }
    const double lb = LbMaxDistToRoadNode(ctx, aug.lb_pivot, aug.ub_pivot);
    if (use_delta && lb > delta) {
      plan->delta_cut = true;
      ++stats->road_nodes_pruned_distance;
      stats->pois_pruned_at_index_level += aug.subtree_pois;
      return;
    }
    into->push({lb, id});
  };

  // One "round" of the I_R traversal: drains the heap into the next-level
  // heap (Algorithm 2 lines 11-26), pruning with the CURRENT S-side bounds.
  bool aborted = false;
  auto process_ir_round = [&]() {
    RoadHeap next;
    while (!heap.empty()) {
      if (InterruptRequested(options)) {
        aborted = true;
        return;
      }
      const auto [key, node_id] = heap.top();
      heap.pop();
      if (use_delta && key > delta) {
        // Line 14: every remaining entry has key >= this one.
        plan->delta_cut = true;
        ++stats->road_nodes_pruned_distance;
        stats->pois_pruned_at_index_level +=
            poi_index_->node_aug(node_id).subtree_pois;
        while (!heap.empty()) {
          ++stats->road_nodes_pruned_distance;
          stats->pois_pruned_at_index_level +=
              poi_index_->node_aug(heap.top().second).subtree_pois;
          heap.pop();
        }
        break;
      }
      const RTreeNode& node = poi_index_->tree().node(node_id);
      ++stats->road_nodes_visited;
      pool.Access(poi_index_->node_aug(node_id).page);
      if (!node.is_leaf()) {
        for (const RTreeEntry& e : node.entries) admit_road(e.id, &next);
        continue;
      }
      for (const RTreeEntry& e : node.entries) {
        ++stats->pois_seen;
        pool.Access(poi_index_->poi_page(e.id));
        const PoiAug& aug = poi_index_->poi_aug(e.id);
        if (flags.match_score && PrunePoiMatch(ctx, aug)) {
          ++stats->pois_pruned_match;
          if (auditor != nullptr) auditor->OnPoiMatchPruned(ctx, e.id);
          continue;
        }
        const double lb = LbDistToPoi(ctx, aug);
        if (use_delta && lb > delta) {
          plan->delta_cut = true;
          ++stats->pois_pruned_distance;
          if (auditor != nullptr) auditor->OnPoiDistanceBound(ctx, e.id, lb);
          continue;
        }
        plan->pois.push_back(e.id);
        plan->lower_bound = std::min(plan->lower_bound, lb);
        // δ update (line 20), guarded by the Eq. 18-style lower-bound
        // feasibility check: u_q must already match the inner ball.
        if (use_delta && MatchScore(ctx.w_q, aug.sub_keywords) >= query.theta) {
          delta = std::min(delta,
                           UbMaxDistViaCenter(s_ub_rp, aug, query.radius));
        }
      }
    }
    heap = std::move(next);
  };

  for (SNodeId id : scope.social_roots) admit_social(id);
  refresh_s_ub();
  for (RNodeId id : scope.road_roots) {
    if (id == poi_index_->tree().root()) {
      heap.push({0.0, id});
    } else {
      admit_road(id, &heap);
    }
  }

  // Descend I_S level by level (lines 4-10), one I_R round per level. All
  // I_S leaves sit at level 0; a shard's frontier may mix levels, so leaves
  // keep their place until the internal nodes beside them are expanded.
  auto has_internal = [&]() {
    return std::any_of(s_frontier.begin(), s_frontier.end(), [&](SNodeId id) {
      return !social_index_->node(id).is_leaf();
    });
  };
  std::vector<SNodeId> level;
  while (!aborted && has_internal()) {
    if (InterruptRequested(options)) {
      aborted = true;
      break;
    }
    level.swap(s_frontier);  // Both buffers keep their capacity.
    s_frontier.clear();
    for (SNodeId id : level) {
      const SocialIndexNode& node = social_index_->node(id);
      if (node.is_leaf()) {
        s_frontier.push_back(id);
        continue;
      }
      for (SNodeId child_id : node.children) admit_social(child_id);
    }
    refresh_s_ub();
    process_ir_round();
  }

  // I_S leaf level: object-level user pruning (Section 3.2).
  uint32_t poll_stride = 0;
  for (SNodeId id : s_frontier) {
    if (aborted) break;
    for (UserId u : social_index_->node(id).users) {
      if ((++poll_stride & 255u) == 0 && InterruptRequested(options)) {
        aborted = true;
        break;
      }
      ++stats->users_seen;
      pool.Access(social_index_->user_page(u));
      if (u == query.issuer) {
        plan->users.push_back(u);
        continue;
      }
      // The hop filter is cheaper (two array lookups) than the interest dot
      // product, so it runs first. Only the pivot lower bound (Lemma 4) is
      // audit-relevant; the BFS labels are exact by construction.
      if (flags.social_distance) {
        const bool pivot_pruned =
            PruneUserSocialDistance(ctx, social_index_->social_pivots(), u);
        if (pivot_pruned || bfs_.Hops(u) >= query.tau) {
          ++stats->users_pruned_distance;
          if (pivot_pruned && auditor != nullptr) {
            auditor->OnUserPruned(ctx, u, PruneRule::kUserSocialDistance);
          }
          continue;
        }
      }
      if (flags.interest_score &&
          PruneUserInterest(ctx, social.Interests(u))) {
        ++stats->users_pruned_interest;
        if (auditor != nullptr) {
          auditor->OnUserPruned(ctx, u, PruneRule::kUserInterest);
        }
        continue;
      }
      plan->users.push_back(u);
    }
  }

  // Remaining I_R levels (lines 27-28).
  int guard = poi_index_->height() + 2;
  while (!heap.empty() && guard-- > 0 && !aborted) process_ir_round();
  if (aborted) return InterruptStatus(options);

  // u_q is in S by definition: on the whole index it survives even when
  // its leaf was node-pruned (a shard leaves that to the coordinator).
  if (single_node && std::find(plan->users.begin(), plan->users.end(),
                               query.issuer) == plan->users.end()) {
    plan->users.push_back(query.issuer);
  }
  stats->users_candidates = plan->users.size();
  stats->pois_candidates = plan->pois.size();

  // δ-based user filter (Lemma 5 applied user-side): any member u of a
  // group achieving objective <= δ satisfies dist(u, center) <= δ for the
  // answer's center (the center lies in its own ball), so users whose
  // pivot lower bound exceeds δ against EVERY candidate center cannot
  // appear in a δ-beating answer. Safe under the same a-posteriori δ check
  // as the traversal cut (ExecuteTopK re-runs without road-distance
  // pruning when the check fails).
  if (use_delta && std::isfinite(delta) && !plan->pois.empty()) {
    std::vector<UserId> kept;
    kept.reserve(plan->users.size());
    for (UserId u : plan->users) {
      const auto& rp = social_index_->user_road_pivot_dists(u);
      const bool reachable =
          u == query.issuer ||
          std::any_of(plan->pois.begin(), plan->pois.end(), [&](PoiId c) {
            const double lb = LbUserPoiDist(rp, poi_index_->poi_aug(c));
            if (auditor != nullptr) auditor->OnPairDistanceBound(ctx, u, c, lb);
            return lb <= delta;
          });
      if (reachable) {
        kept.push_back(u);
      } else {
        plan->delta_cut = true;
        ++stats->users_pruned_distance;
      }
    }
    plan->users = std::move(kept);
  }
  stats->descent_seconds += descent_timer.ElapsedSeconds();
  return Status::OK();
}

Status GpssnProcessor::Refine(const QueryOptions& options,
                              const std::vector<std::vector<UserId>>& groups,
                              int top_k, double incumbent, QueryPlan* plan,
                              QueryStats* stats,
                              std::vector<RankedAnswer>* best) {
  best->clear();
  if (groups.empty() || plan->pois.empty()) return Status::OK();
  const QueryUserContext& ctx = plan->ctx;
  const GpssnQuery& query = ctx.query;
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  BufferPool& pool = plan->pool;
  DistanceEngine& engine = *EngineFor(options);
  PruningAuditor* auditor = AuditorFor(options);
  scratch_.BeginQuery(static_cast<size_t>(ssn.num_users()),
                      static_cast<size_t>(ssn.num_pois()));
  RefineScratch& scr = scratch_;

  // Number the issuer and the groups' users once; the distance rows and
  // the per-center table below are indexed by member number.
  scr.AddMember(query.issuer);
  for (const std::vector<UserId>& group : groups) {
    for (UserId u : group) scr.AddMember(u);
  }
  scr.member_row.assign(static_cast<size_t>(scr.num_members), -1);
  scr.at_center.assign(static_cast<size_t>(scr.num_members), CenterCell());

  // Candidate centers ordered by the issuer's pivot lower bound. Every
  // ball materializes up front so the needed-POI slot table is complete
  // before the first distance row is computed: a row covers every needed
  // POI, and an infinite entry is a proof, not a gap. B(c, r) is read from
  // I_R: the members of the stored B(c, r_max) within r, in the order the
  // reference bounded search emits them, with ∪_{o∈R} o.K built as a
  // keyword mask alongside. Only a ball whose keyword union the issuer
  // matches can hold an answer, so only its center is kept (its ball
  // sorted and its mask, both in the flat scratch arrays) and only its
  // members take slots.
  std::vector<std::pair<double, PoiId>> by_lb;
  by_lb.reserve(plan->pois.size());
  for (PoiId c : plan->pois) {
    by_lb.emplace_back(LbDistToPoi(ctx, poi_index_->poi_aug(c)), c);
  }
  std::sort(by_lb.begin(), by_lb.end());
  const int num_topics = ssn.num_topics();
  const size_t mask_words = KeywordMaskWords(num_topics);
  for (const auto& [lb, c] : by_lb) {
    if (InterruptRequested(options)) return InterruptStatus(options);
    const ScopedPhaseTimer ball_phase(&stats->ball_seconds);
    ++stats->ball_queries;
    const size_t ball_begin = scr.balls.size();
    const size_t mask_begin = scr.masks.size();
    scr.masks.resize(mask_begin + mask_words, 0);
    uint64_t* mask = scr.masks.data() + mask_begin;
    for (const auto& [id, dist] : poi_index_->poi_aug(c).ball) {
      if (dist > query.radius) continue;
      scr.balls.push_back(id);
      pool.Access(poi_index_->poi_page(id));
      AddToKeywordMask(ssn.poi(id).keywords, num_topics, mask);
    }
    if (MatchScoreOverMask(ctx.w_q, {mask, mask_words}) < query.theta) {
      scr.balls.resize(ball_begin);
      scr.masks.resize(mask_begin);
      continue;
    }
    for (size_t i = ball_begin; i < scr.balls.size(); ++i) {
      const PoiId id = scr.balls[i];
      if (scr.poi_stamp[id] != scr.generation) {
        scr.poi_stamp[id] = scr.generation;
        scr.poi_slot[id] = static_cast<int32_t>(scr.needed.size());
        scr.needed.push_back(id);
        scr.needed_positions.push_back(ssn.poi(id).position);
      }
    }
    std::sort(scr.balls.begin() + static_cast<ptrdiff_t>(ball_begin),
              scr.balls.end());
    scr.centers.push_back({/*worst=*/0.0, c, static_cast<uint32_t>(ball_begin),
                           static_cast<uint32_t>(scr.balls.size()),
                           static_cast<uint32_t>(mask_begin)});
  }
  auto ball_of = [&](const RefineCenter& center) {
    return std::span<const PoiId>(scr.balls.data() + center.ball_begin,
                                  center.ball_end - center.ball_begin);
  };
  // The cache keeps a user's items in ascending POI id order: sort the
  // needed POIs that way once per query, with each one's slot, so a row
  // lookup or insert is one linear merge plus a gather. The slots keep
  // discovery order, which groups each ball's targets; id-ordered targets
  // made the CH engine's rows slower.
  if (options.distance_cache != nullptr) {
    scr.cache_pois = scr.needed;
    std::sort(scr.cache_pois.begin(), scr.cache_pois.end());
    scr.cache_slots.clear();
    for (PoiId id : scr.cache_pois) {
      scr.cache_slots.push_back(scr.poi_slot[id]);
    }
    scr.cache_row.resize(scr.needed.size());
  }

  // Per-user exact distances to every needed POI, computed lazily with one
  // bounded search per member (a kInfDistance entry proves the pair cannot
  // beat the bound the row was computed under), backed by the processor's
  // stamped scratch and optionally by the shared cross-query cache, which
  // serves or stores the whole row under one lock. The returned row stays
  // valid until the next call. A row of no needed POI is a cache hit:
  // there is nothing to look up.
  bool targets_set = false;
  auto user_dists = [&](UserId u, double bound) -> const double* {
    const size_t width = scr.needed.size();
    int32_t& stored_row = scr.member_row[scr.user_member[u]];
    if (stored_row >= 0) {
      return scr.rows.data() + static_cast<size_t>(stored_row) * width;
    }
    if (!targets_set) {
      engine.SetTargets(scr.needed_positions);
      scr.rows.reserve(static_cast<size_t>(scr.num_members) * width);
      targets_set = true;
    }
    const int32_t row_index =
        width == 0 ? 0 : static_cast<int32_t>(scr.rows.size() / width);
    scr.rows.resize(scr.rows.size() + width);
    double* row = scr.rows.data() + static_cast<size_t>(row_index) * width;
    bool have_row = false;
    if (options.distance_cache != nullptr) {
      have_row = options.distance_cache->LookupRow(u, scr.cache_pois, bound,
                                                   scr.cache_row.data());
      if (have_row) {
        ++stats->dist_cache_row_hits;
        for (size_t i = 0; i < width; ++i) {
          row[scr.cache_slots[i]] = scr.cache_row[i];
        }
      } else {
        ++stats->dist_cache_row_misses;
      }
    }
    if (!have_row) {
      const ScopedPhaseTimer exact_phase(&stats->exact_dist_seconds);
      engine.SourceToTargets(ssn.user_home(u), bound, row);
      ++stats->exact_distance_evals;
      if (options.distance_cache != nullptr) {
        for (size_t i = 0; i < width; ++i) {
          scr.cache_row[i] = row[scr.cache_slots[i]];
        }
        options.distance_cache->InsertRow(u, scr.cache_pois, bound,
                                          scr.cache_row.data());
      }
    }
    // Charge the traversal of the user's neighbourhood (adjacency pages).
    pool.Access(social_index_->user_page(u));
    stored_row = row_index;
    return row;
  };

  // One exact search from the issuer, bounded by δ (single node) or the
  // incumbent (shard), upgrades the center order to the exact issuer-side
  // objective contribution max_{o∈ball} dist(u_q, o): the objective of
  // any pair at center c is at least that, since u_q ∈ S. Centers beyond
  // the bound are dropped outright (they cannot beat the incumbent, and a
  // center δ drops is a δ cut, covered by the a-posteriori δ check).
  {
    const bool bound_is_delta = plan->delta < incumbent;
    const double* issuer_dists =
        user_dists(query.issuer, std::min(plan->delta, incumbent));
    size_t kept = 0;
    for (size_t i = 0; i < scr.centers.size(); ++i) {
      RefineCenter center = scr.centers[i];
      bool in_range = center.ball_end > center.ball_begin;
      for (PoiId o : ball_of(center)) {
        const double d = issuer_dists[scr.poi_slot[o]];
        if (d >= kInfDistance) {
          in_range = false;  // Beyond the bound (or unreachable).
          if (bound_is_delta) plan->delta_cut = true;
          break;
        }
        center.worst = std::max(center.worst, d);
      }
      if (in_range) scr.centers[kept++] = center;
    }
    scr.centers.resize(kept);
    std::sort(scr.centers.begin(), scr.centers.end(),
              [](const RefineCenter& a, const RefineCenter& b) {
                return std::tie(a.worst, a.id) < std::tie(b.worst, b.id);
              });
  }

  // `best` holds up to top_k answers in discovery-rank order. Until it is
  // full, an answer survives when it does not exceed the incumbent (a tie
  // may still win a rank comparison against it); once full, an answer must
  // beat the k-th strictly, since it would rank after every equal
  // objective found before it. The row bound follows the same threshold.
  // reject() is monotone in its argument and its threshold moves only when
  // an answer is kept, which needs a center the issuer matches; so leaving
  // the other centers out above changes neither which centers are visited
  // nor where the loop breaks.
  auto full = [&]() { return static_cast<int>(best->size()) >= top_k; };
  auto bound = [&]() {
    return full() ? best->back().answer.max_dist : incumbent;
  };
  auto reject = [&](double v) { return full() ? v >= bound() : v > incumbent; };

  int64_t pair_budget = options.max_refine_pairs;
  uint32_t poll_stride = 0;
  uint32_t visit = 0;
  for (const RefineCenter& center : scr.centers) {
    if (InterruptRequested(options)) return InterruptStatus(options);
    // Centers ascend by `worst` and the threshold only tightens, so every
    // later center is rejected too.
    if (reject(center.worst)) break;
    const std::span<const PoiId> ball = ball_of(center);
    const std::span<const uint64_t> mask(scr.masks.data() + center.mask_begin,
                                         mask_words);
    const PoiAug& center_aug = poi_index_->poi_aug(center.id);
    ++visit;
    // User u's entry at this center, its Lemma 5 bound computed on first
    // use: once per (member, center), however many groups share u.
    auto cell = [&](UserId u) -> CenterCell& {
      CenterCell& entry = scr.at_center[scr.user_member[u]];
      if (entry.visit != visit) {
        entry.lb = LbUserPoiDist(social_index_->user_road_pivot_dists(u),
                                 center_aug);
        entry.visit = visit;
        entry.match = -1;
        ++stats->pair_bounds;
        if (auditor != nullptr) {
          auditor->OnPairDistanceBound(ctx, u, center.id, entry.lb);
        }
      }
      return entry;
    };
    auto matches = [&](UserId u) {
      CenterCell& entry = cell(u);
      if (entry.match < 0) {
        entry.match =
            MatchScoreOverMask(ssn.social().Interests(u), mask) >= query.theta;
      }
      return entry.match == 1;
    };

    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if ((++poll_stride & 63u) == 0 && InterruptRequested(options)) {
        return InterruptStatus(options);
      }
      const std::vector<UserId>& group = groups[gi];
      // Pivot lower bound of the pair objective (Lemma 5). It only grows
      // member by member, so the member that lifts it past the threshold
      // rejects the pair without bounding the rest.
      double pair_lb = center.worst;
      for (size_t j = 0; j < group.size() && !reject(pair_lb); ++j) {
        pair_lb = std::max(pair_lb, cell(group[j]).lb);
      }
      if (reject(pair_lb)) continue;
      if (!std::all_of(group.begin(), group.end(), matches)) continue;

      // Exact objective: maxdist_RN(S, B(c, r)). The budget caps only
      // these expensive evaluations; lower-bound skips above are O(h) and
      // free.
      if (--pair_budget < 0) {
        stats->truncated = true;
        break;
      }
      ++stats->pairs_examined;
      double obj = 0.0;
      bool feasible = true;
      for (UserId u : group) {
        const double* dists = user_dists(u, bound());
        for (PoiId o : ball) {
          const double d = dists[scr.poi_slot[o]];
          if (d >= kInfDistance) {
            feasible = false;  // Distance beyond the bound: cannot win.
            break;
          }
          obj = std::max(obj, d);
        }
        if (!feasible || reject(obj)) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      // S and R are copied once the loop ends, for the answers still kept.
      RankedAnswer ranked;
      ranked.answer.found = true;
      ranked.answer.center = center.id;
      ranked.answer.max_dist = obj;
      ranked.center_worst = center.worst;
      ranked.group_index = static_cast<int64_t>(gi);
      best->insert(std::upper_bound(best->begin(), best->end(), ranked,
                                    RanksBefore),
                   std::move(ranked));
      if (static_cast<int>(best->size()) > top_k) best->pop_back();
    }
    if (pair_budget < 0) break;
  }
  for (RankedAnswer& ranked : *best) {
    ranked.answer.users = groups[static_cast<size_t>(ranked.group_index)];
    const auto center = std::find_if(
        scr.centers.begin(), scr.centers.end(),
        [&](const RefineCenter& c) { return c.id == ranked.answer.center; });
    const std::span<const PoiId> ball = ball_of(*center);
    ranked.answer.pois.assign(ball.begin(), ball.end());
  }
  return Status::OK();
}

}  // namespace gpssn
