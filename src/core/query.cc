#include "core/query.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <numeric>
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

// Matched centers in Refine's first batch when rows refill in one sweep;
// each later batch doubles it. A batch that adds targets costs a
// registration plus one sweep per row read again, so the batches grow: a
// query that visits n centers re-registers O(log n) times.
constexpr size_t kFirstRefineBatch = 16;

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
  num_members = 0;
  rows.clear();
  tables.clear();
}

void GpssnProcessor::RefineScratch::AddMembers(
    UserId issuer, const std::vector<std::vector<UserId>>& groups) {
  // Numbers a user on first sight; its entry counts its groups first.
  member_group_begin.clear();
  auto number = [&](UserId u) -> uint32_t& {
    if (user_stamp[u] != generation) {
      user_stamp[u] = generation;
      user_member[u] = num_members++;
      member_group_begin.push_back(0);
    }
    return member_group_begin[static_cast<size_t>(user_member[u])];
  };
  number(issuer);
  for (const std::vector<UserId>& group : groups) {
    for (UserId u : group) ++number(u);
  }
  // Running sums leave each member's end in its entry; filling the groups
  // in descending index order moves it back to the member's start and
  // leaves each list ascending.
  uint32_t total = 0;
  for (uint32_t& entry : member_group_begin) entry = total += entry;
  member_group_begin.push_back(total);
  member_groups.resize(total);
  for (size_t gi = groups.size(); gi-- > 0;) {
    for (UserId u : groups[gi]) {
      member_groups[--member_group_begin[static_cast<size_t>(
          user_member[u])]] = static_cast<uint32_t>(gi);
    }
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

template <typename Stages>
Status GpssnProcessor::RunPlanned(const GpssnQuery& query,
                                  const QueryOptions& options,
                                  QueryStats* stats, Stages&& stages) {
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;
  QueryPlan plan(query, *social_index_, *poi_index_,
                 options.buffer_pool_pages);
  const Status status = stages(&plan, out);
  out->io.logical_accesses += plan.pool.stats().logical_accesses;
  out->io.page_misses += plan.pool.stats().page_misses;
  out->cpu_seconds = timer.ElapsedSeconds();
  return status;
}

Result<std::vector<GpssnAnswer>> GpssnProcessor::ExecuteTopK(
    const GpssnQuery& query, int k, const QueryOptions& options,
    QueryStats* stats) {
  if (k < 1) return Status::InvalidArgument("top-k requires k >= 1");
  GPSSN_RETURN_NOT_OK(ValidateQuery(query));
  std::vector<RankedAnswer> best;
  GPSSN_RETURN_NOT_OK(RunPlanned(
      query, options, stats, [&](QueryPlan* plan, QueryStats* out) {
        ShardScope whole;
        whole.social_roots = {social_index_->root()};
        whole.road_roots = {poi_index_->tree().root()};
        GPSSN_RETURN_NOT_OK(Gather(options, whole, plan, out));
        // u_q is in S by definition: on the whole index it joins the
        // candidates even when its leaf was node-pruned (the serving
        // coordinator does the same after merging the shards' lists).
        if (std::find(plan->users.begin(), plan->users.end(),
                      query.issuer) == plan->users.end()) {
          plan->users.push_back(query.issuer);
          ++out->users_candidates;
        }
        const ScopedPhaseTimer refine_phase(&out->refine_seconds);
        PlanGroups(poi_index_->ssn().social(), query, options,
                   &social_scratch_, &plan->users, &plan->groups, out);
        return Refine(options, plan->groups, k, kInfDistance, plan, out,
                      &best);
      }));
  std::vector<GpssnAnswer> answers;
  answers.reserve(best.size());
  for (RankedAnswer& ranked : best) answers.push_back(std::move(ranked.answer));
  return answers;
}

Result<ShardCandidates> GpssnProcessor::GatherCandidates(
    const GpssnQuery& query, const QueryOptions& options,
    const ShardScope& scope, QueryStats* stats) {
  GPSSN_RETURN_NOT_OK(ValidateQuery(query));
  ShardCandidates result;
  std::vector<std::pair<double, PoiId>> pois;
  GPSSN_RETURN_NOT_OK(RunPlanned(
      query, options, stats, [&](QueryPlan* plan, QueryStats* out) {
        GPSSN_RETURN_NOT_OK(Gather(options, scope, plan, out));
        result.users = std::move(plan->users);
        pois = std::move(plan->pois);
        result.lower_bound = plan->lower_bound;
        return Status::OK();
      }));
  result.pois.reserve(pois.size());
  for (const auto& [lb, id] : pois) result.pois.push_back(id);
  std::sort(result.pois.begin(), result.pois.end());
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
  // users/pois/groups counters stay 0 here: the coordinator owns the
  // candidate-level counters (the gather stats already carry them), so the
  // merged per-query stats count each candidate exactly once.
  std::vector<RankedAnswer> best;
  GPSSN_RETURN_NOT_OK(RunPlanned(
      query, options, stats, [&](QueryPlan* plan, QueryStats* out) {
        plan->pois.reserve(centers.size());
        for (PoiId c : centers) {
          plan->pois.emplace_back(
              LbRoadPivotDist(plan->ctx.rp_dist, poi_index_->pivot_dists(c)),
              c);
        }
        const ScopedPhaseTimer refine_phase(&out->refine_seconds);
        return Refine(options, groups, /*top_k=*/1, incumbent, plan, out,
                      &best);
      }));
  return best.empty() ? ShardRefineResult() : std::move(best.front());
}

Status GpssnProcessor::Gather(const QueryOptions& options,
                              const ShardScope& scope, QueryPlan* plan,
                              QueryStats* stats) {
  if (InterruptRequested(options)) return InterruptStatus(options);
  const QueryUserContext& ctx = plan->ctx;
  const GpssnQuery& query = ctx.query;
  const SocialNetwork& social = poi_index_->ssn().social();
  const PruningFlags& flags = options.pruning;
  BufferPool& pool = plan->pool;
  PruningAuditor* auditor = AuditorFor(options);
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

  // I_S, level by level (Algorithm 2 lines 4-10). A scope root other than
  // the index root is prune-tested like any child: the single-node descent
  // tests it as its parent's child.
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
  for (SNodeId id : scope.social_roots) admit_social(id);

  // All I_S leaves sit at level 0; a shard's frontier may mix levels, so
  // leaves keep their place until the internal nodes beside them are
  // expanded. Candidate users thus come out in leaf (left-to-right) order.
  auto has_internal = [&]() {
    return std::any_of(s_frontier.begin(), s_frontier.end(), [&](SNodeId id) {
      return !social_index_->node(id).is_leaf();
    });
  };
  std::vector<SNodeId> s_level;
  while (has_internal()) {
    if (InterruptRequested(options)) return InterruptStatus(options);
    s_level.swap(s_frontier);  // Both buffers keep their capacity.
    s_frontier.clear();
    for (SNodeId id : s_level) {
      const SocialIndexNode& node = social_index_->node(id);
      if (node.is_leaf()) {
        s_frontier.push_back(id);
        continue;
      }
      for (SNodeId child_id : node.children) admit_social(child_id);
    }
  }

  // I_S leaf level: object-level user pruning (Section 3.2).
  uint32_t poll_stride = 0;
  for (SNodeId id : s_frontier) {
    for (UserId u : social_index_->node(id).users) {
      if ((++poll_stride & 255u) == 0 && InterruptRequested(options)) {
        return InterruptStatus(options);
      }
      ++stats->users_seen;
      pool.Access(social_index_->user_page(u));
      if (u == query.issuer) {
        plan->users.push_back(u);
        continue;
      }
      // The exact hop test (one array lookup) runs before the interest
      // score. It prunes every user Lemma 4's pivot bound prunes, since
      // that bound never exceeds the true hop count, so the bound is
      // evaluated only for the auditor, which samples its prunes.
      if (flags.social_distance && bfs_.Hops(u) >= query.tau) {
        ++stats->users_pruned_distance;
        if (auditor != nullptr &&
            PruneUserSocialDistance(ctx, social_index_->social_pivots(), u)) {
          auditor->OnUserPruned(ctx, u, PruneRule::kUserSocialDistance);
        }
        continue;
      }
      if (flags.interest_score && PruneUserInterest(ctx, social.Run(u))) {
        ++stats->users_pruned_interest;
        if (auditor != nullptr) {
          auditor->OnUserPruned(ctx, u, PruneRule::kUserInterest);
        }
        continue;
      }
      plan->users.push_back(u);
    }
  }

  // I_R, level by level (lines 11-28). Like the I_S side, only the index
  // root enters untested. Algorithm 2's δ cut (lines 14 and 20) is not
  // applied: δ bounds the objective only if the δ-defining center admits a
  // feasible group, which the descent cannot know, so Refine's incumbent
  // is the one road-distance prune (DESIGN.md §5).
  std::vector<RNodeId> r_frontier;
  auto admit_road = [&](RNodeId id) {
    if (id != poi_index_->tree().root() && flags.match_score &&
        PrunePoiMatch(ctx, poi_index_->node_mask(id))) {
      ++stats->road_nodes_pruned_match;
      stats->pois_pruned_at_index_level +=
          poi_index_->node_aug(id).subtree_pois;
      if (auditor != nullptr) auditor->OnRoadNodeMatchPruned(ctx, id);
      return;
    }
    r_frontier.push_back(id);
  };
  for (RNodeId id : scope.road_roots) admit_road(id);
  std::vector<RNodeId> r_level;
  while (!r_frontier.empty()) {
    r_level.swap(r_frontier);
    r_frontier.clear();
    for (RNodeId node_id : r_level) {
      if (InterruptRequested(options)) return InterruptStatus(options);
      const RTreeNode& node = poi_index_->tree().node(node_id);
      ++stats->road_nodes_visited;
      pool.Access(poi_index_->node_aug(node_id).page);
      if (!node.is_leaf()) {
        for (const RTreeEntry& e : node.entries) admit_road(e.id);
        continue;
      }
      for (const RTreeEntry& e : node.entries) {
        ++stats->pois_seen;
        pool.Access(poi_index_->poi_page(e.id));
        if (flags.match_score &&
            PrunePoiMatch(ctx, poi_index_->sup_mask(e.id))) {
          ++stats->pois_pruned_match;
          if (auditor != nullptr) auditor->OnPoiMatchPruned(ctx, e.id);
          continue;
        }
        // Eq. 17 (object form) bounds the issuer's share of any objective
        // centered here; Refine orders the centers by it, and the least
        // bound is the one a serving coordinator skips a shard by.
        const double lb =
            LbRoadPivotDist(ctx.rp_dist, poi_index_->pivot_dists(e.id));
        if (auditor != nullptr) auditor->OnPoiDistanceBound(ctx, e.id, lb);
        plan->pois.emplace_back(lb, e.id);
        plan->lower_bound = std::min(plan->lower_bound, lb);
      }
    }
  }
  stats->users_candidates = plan->users.size();
  stats->pois_candidates = plan->pois.size();
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
  DistanceCache* const cache = options.distance_cache;
  PruningAuditor* auditor = AuditorFor(options);
  scratch_.BeginQuery(static_cast<size_t>(ssn.num_users()),
                      static_cast<size_t>(ssn.num_pois()));
  RefineScratch& scr = scratch_;

  // Number the issuer and the groups' users once; the distance rows, the
  // per-center table and the member -> groups lists below are indexed by
  // member number.
  scr.AddMembers(query.issuer, groups);
  scr.member_row.assign(static_cast<size_t>(scr.num_members), -1);
  scr.at_center.assign(static_cast<size_t>(scr.num_members), CenterCell());
  scr.rows.reserve(static_cast<size_t>(scr.num_members));

  // `best` holds up to top_k answers in discovery-rank order. Until it is
  // full, an answer survives when it does not exceed the incumbent (a tie
  // may still win a rank comparison against it); once full, an answer must
  // beat the k-th strictly, since it would rank after every equal
  // objective found before it. The row bound follows the same threshold.
  // reject() is monotone in its argument and its threshold moves only when
  // an answer is kept, which needs a center the issuer matches; so leaving
  // the other centers out below changes neither which centers are visited
  // nor where the loop breaks.
  auto full = [&]() { return static_cast<int>(best->size()) >= top_k; };
  auto bound = [&]() {
    return full() ? best->back().answer.max_dist : incumbent;
  };
  auto reject = [&](double v) { return full() ? v >= bound() : v > incumbent; };

  // The candidates not materialized yet ("pending") come out of a min-heap
  // in (key, id) order, the key being the issuer's Eq. 17 bound. A center
  // belongs to its own ball, so its key never exceeds its exact `worst`
  // below, and a center whose `worst` is below every pending key ranks
  // before all of them. They materialize in batches. A row that refills in
  // one sweep (CH) lets a batch hold kFirstRefineBatch matched centers,
  // doubling: each batch that adds targets re-registers the needed set, and
  // every row reopens at its next read. A Dijkstra row would redo its
  // search, and a cache looks rows up and stores them over one needed set,
  // so either takes one batch of every candidate, before the first row.
  std::vector<std::pair<double, PoiId>>& pending = plan->pois;
  std::make_heap(pending.begin(), pending.end(), std::greater<>());
  const size_t first_batch = engine.RowRefillsInOneSweep() && cache == nullptr
                                 ? kFirstRefineBatch
                                 : pending.size();
  auto next_key = [&]() {
    return pending.empty() ? kInfDistance : pending.front().first;
  };
  auto pop_pending = [&]() {
    std::pop_heap(pending.begin(), pending.end(), std::greater<>());
    const PoiId c = pending.back().second;
    pending.pop_back();
    return c;
  };
  // Materializes pending candidates until `quota` of them match, none is
  // left, or the next key fails Lemma 7, since every later center's `worst`
  // fails it too. B(c, r) is read from I_R: the stored B(c, r_max) is in
  // (distance, id) order, so B(c, r) is its prefix within r, and the
  // prefix's last running mask is ∪_{o∈R} o.K. Only a ball whose keyword
  // union the issuer matches can hold an answer, so only its center is
  // kept, and only its members take slots and are charged. False when
  // interrupted.
  auto materialize = [&](size_t quota) {
    // One timer spans the batch, not one per center: a query materializes
    // hundreds of centers, and each timer reads the clock twice.
    const ScopedPhaseTimer ball_phase(&stats->ball_seconds);
    for (size_t matched = 0; matched < quota && !pending.empty();) {
      if (reject(next_key())) break;
      if (InterruptRequested(options)) return false;
      const PoiId c = pop_pending();
      ++stats->ball_queries;
      // B(c, r) holds c itself at distance 0, so the prefix is not empty.
      const size_t size = poi_index_->BallPrefix(c, query.radius);
      GPSSN_DCHECK(size > 0);
      if (MatchScoreOverMask(ctx.q_run(), poi_index_->ball_mask(c, size)) <
          query.theta) {
        continue;
      }
      for (PoiId id : poi_index_->ball_ids(c).first(size)) {
        pool.Access(poi_index_->poi_page(id));
        if (scr.poi_stamp[id] != scr.generation) {
          scr.poi_stamp[id] = scr.generation;
          scr.poi_slot[id] = static_cast<int32_t>(scr.needed.size());
          scr.needed.push_back(id);
          scr.needed_positions.push_back(ssn.poi(id).position);
        }
      }
      scr.centers.push_back({/*worst=*/0.0, c, static_cast<uint32_t>(size)});
      ++matched;
    }
    return true;
  };
  auto ball_of = [&](const RefineCenter& center) {
    return poi_index_->ball_ids(center.id).first(center.size);
  };

  // Per-member exact distances to the needed POIs, decided lazily. A
  // member's row is looked up in the shared cache, and charged, at its
  // first use. Each read then decides the entries it reads under its
  // bound: the entries the row does not decide yet (missing, or "> tag"
  // below the bound) grow the row's search, which the first such read
  // opens. Without a cache every entry starts missing, so the search opens
  // at the first read, which follows the lookup at once. The engine grows a
  // row in place. Rows are valid until the next row_of call or
  // registration.
  size_t width = 0;  // The needed POIs registered as targets.
  auto entries_of = [&](size_t r) { return scr.tables.data() + 2 * r * width; };
  // Registers the needed POIs as the engine's targets when a batch added
  // some. SetTargets closes every row, so each row starts over at the new
  // width, decided nowhere, and reopens at its next read: one sweep on CH,
  // whose finite entries do not depend on the other targets. The cache
  // keeps a user's items in ascending POI id order: sort the needed POIs
  // that way, with each one's slot, so a row lookup or insert is one
  // linear merge plus a gather. The slots keep discovery order, which
  // groups each ball's targets; id-ordered targets made the CH engine's
  // rows slower.
  auto register_targets = [&]() {
    if (scr.needed.size() == width) return;
    engine.SetTargets(scr.needed_positions);
    width = scr.needed.size();
    scr.tables.resize(2 * width * scr.rows.size());
    for (size_t r = 0; r < scr.rows.size(); ++r) {
      double* dists = entries_of(r);
      std::fill(dists, dists + width, kInfDistance);
      std::fill(dists + width, dists + 2 * width, -kInfDistance);
      scr.rows[r].search = -1;
      scr.rows[r].decided = -kInfDistance;
    }
    if (cache != nullptr) {
      scr.cache_pois = scr.needed;
      std::sort(scr.cache_pois.begin(), scr.cache_pois.end());
      scr.cache_slots.clear();
      for (PoiId id : scr.cache_pois) {
        scr.cache_slots.push_back(scr.poi_slot[id]);
      }
      scr.cache_dists.resize(width);
      scr.cache_tags.resize(width);
    }
  };
  auto row_of = [&](UserId u) -> size_t {
    int32_t& r = scr.member_row[static_cast<size_t>(scr.user_member[u])];
    if (r >= 0) return static_cast<size_t>(r);
    r = static_cast<int32_t>(scr.rows.size());
    scr.rows.push_back({u});
    scr.tables.resize(scr.tables.size() + width, kInfDistance);
    scr.tables.resize(scr.tables.size() + width, -kInfDistance);
    const auto row = static_cast<size_t>(r);
    if (cache != nullptr) {
      cache->LookupRow(u, scr.cache_pois, scr.cache_dists.data(),
                       scr.cache_tags.data());
      double* dists = entries_of(row);
      double* proven = dists + width;
      for (size_t i = 0; i < width; ++i) {
        dists[scr.cache_slots[i]] = scr.cache_dists[i];
        proven[scr.cache_slots[i]] = scr.cache_tags[i];
      }
    }
    // Charge the traversal of the user's neighbourhood (adjacency pages).
    pool.Access(social_index_->user_page(u));
    return row;
  };
  // Row r's entries, those at scr.read_slots decided under `bound`. A
  // bound the row's search decides every entry under needs no look at the
  // entries: a CH row's after its sweep, a Dijkstra row's below its
  // frontier.
  auto read_row = [&](size_t r, double bound) -> const double* {
    double* dists = entries_of(r);
    RefineRow& row = scr.rows[r];
    if (bound <= row.decided) return dists;
    double* proven = dists + width;
    scr.wanted.clear();
    for (int32_t slot : scr.read_slots) {
      if (proven[slot] < bound) scr.wanted.push_back(slot);
    }
    if (!scr.wanted.empty()) {
      const ScopedPhaseTimer exact_phase(&stats->exact_dist_seconds);
      if (row.search < 0) {
        row.search = engine.OpenRow(ssn.user_home(row.user), dists);
        ++stats->exact_distance_evals;
      }
      engine.GrowRow(row.search, scr.wanted, bound, dists);
      for (int32_t slot : scr.wanted) proven[slot] = bound;
      row.decided = engine.RowDecidedBound(row.search);
    }
    return dists;
  };
  // Stores every row that opened a search into the cache, each entry with
  // what it proves: the larger of its reads' bounds and the bound the
  // row's search decides every entry under. Counts the rows whose reads
  // opened no search as hits.
  auto store_rows = [&]() {
    if (cache == nullptr) return;
    const ScopedPhaseTimer exact_phase(&stats->exact_dist_seconds);
    for (size_t r = 0; r < scr.rows.size(); ++r) {
      const RefineRow& row = scr.rows[r];
      if (row.search < 0) {
        ++stats->dist_cache_row_hits;
        continue;
      }
      ++stats->dist_cache_row_misses;
      const double* dists = entries_of(r);
      const double* proven = dists + width;
      for (size_t i = 0; i < width; ++i) {
        const int32_t slot = scr.cache_slots[i];
        const double tag = std::max(proven[slot], row.decided);
        scr.cache_dists[i] = dists[slot] <= tag ? dists[slot] : kInfDistance;
        scr.cache_tags[i] = tag;
      }
      cache->InsertRow(row.user, scr.cache_pois, scr.cache_dists.data(),
                       scr.cache_tags.data());
    }
  };
  auto interrupted = [&]() {
    store_rows();
    return InterruptStatus(options);
  };

  // The issuer's row, decided over every needed POI under the bound,
  // upgrades each new center's key to its exact issuer-side objective
  // contribution max_{o∈ball} dist(u_q, o): the objective of any pair at
  // center c is at least that, since u_q ∈ S. A center beyond the bound
  // cannot beat the incumbent, so it is dropped outright. The centers not
  // visited yet, from `first_unvisited` on, are then ranked.
  auto resolve = [&](size_t first_new, size_t first_unvisited) {
    register_targets();
    const double b = bound();
    scr.read_slots.resize(width);
    std::iota(scr.read_slots.begin(), scr.read_slots.end(), 0);
    const double* issuer_dists = read_row(row_of(query.issuer), b);
    size_t kept = first_new;
    for (size_t i = first_new; i < scr.centers.size(); ++i) {
      RefineCenter center = scr.centers[i];
      bool in_range = true;
      for (PoiId o : ball_of(center)) {
        const double d = issuer_dists[scr.poi_slot[o]];
        if (d >= kInfDistance || d > b) {
          in_range = false;  // Beyond the bound (or unreachable).
          break;
        }
        center.worst = std::max(center.worst, d);
      }
      if (in_range) scr.centers[kept++] = center;
    }
    stats->pois_pruned_distance += scr.centers.size() - kept;
    scr.centers.resize(kept);
    const auto unvisited = static_cast<std::ptrdiff_t>(first_unvisited);
    std::sort(scr.centers.begin() + unvisited, scr.centers.end(),
              [](const RefineCenter& a, const RefineCenter& b) {
                return std::tie(a.worst, a.id) < std::tie(b.worst, b.id);
              });
  };

  // A member whose Lemma 5 bound, θ match or exact share fails at a center
  // fails every group that holds it there, now or later at that center,
  // since the threshold only tightens. So the loop marks all of those
  // groups dead at once and visits only live ones, in index order: the
  // groups it keeps, and their order, are the same as if each group had
  // been tested member by member. A group whose members all pass is kept,
  // so a center costs at most one exact evaluation per member plus k per
  // share value an answer takes.
  const size_t num_groups = groups.size();
  const size_t group_words = (num_groups + 63) / 64;
  auto kill = [&](UserId u) {
    const auto m = static_cast<size_t>(scr.user_member[u]);
    for (uint32_t i = scr.member_group_begin[m];
         i < scr.member_group_begin[m + 1]; ++i) {
      const uint32_t g = scr.member_groups[i];
      scr.dead_groups[g >> 6] |= uint64_t{1} << (g & 63u);
    }
  };
  // The first live group at index >= `from` (num_groups when none is left),
  // read from the bitmap a word at a time.
  auto next_live = [&](size_t from) {
    size_t w = from >> 6;
    if (w == group_words) return num_groups;
    uint64_t live = ~scr.dead_groups[w] & (~uint64_t{0} << (from & 63u));
    while (live == 0) {
      if (++w == group_words) return num_groups;
      live = ~scr.dead_groups[w];
    }
    return (w << 6) + static_cast<size_t>(std::countr_zero(live));
  };

  uint32_t poll_stride = 0;
  uint32_t visit = 0;
  // Centers [0, ci) are visited. Each round materializes a batch, resolves
  // it, and visits the resolved centers ranked below the next pending key:
  // in (worst, id) order, as if every center had been resolved up front.
  size_t ci = 0;
  for (size_t quota = first_batch;; quota *= 2) {
    const size_t first_new = scr.centers.size();
    if (!materialize(quota)) return interrupted();
    resolve(first_new, ci);
    const double frontier = next_key();
    bool stopped = false;
    const ScopedPhaseTimer pair_loop_phase(&stats->pair_loop_seconds);
    for (; ci < scr.centers.size() && scr.centers[ci].worst < frontier;
         ++ci) {
      if (InterruptRequested(options)) return interrupted();
      const RefineCenter& center = scr.centers[ci];
      // Lemma 7 with the issuer's exact distances: centers ascend by
      // `worst`, every pending one's is at least its key, and the
      // threshold only tightens, so every later center is rejected too.
      // These are the road-distance prunes the funnel counts.
      if (reject(center.worst)) {
        stopped = true;
        break;
      }
      scr.read_slots.clear();
      for (PoiId o : ball_of(center)) {
        scr.read_slots.push_back(scr.poi_slot[o]);
      }
      const std::span<const uint64_t> mask =
          poi_index_->ball_mask(center.id, center.size);
      const std::span<const double> center_pivots =
          poi_index_->pivot_dists(center.id);
      ++visit;
      scr.dead_groups.assign(group_words, 0);
      if (num_groups % 64 != 0) {
        scr.dead_groups.back() = ~uint64_t{0} << (num_groups % 64);
      }
      // User u's entry at this center, its Lemma 5 bound computed on first
      // use: once per (member, center), however many groups share u.
      auto cell = [&](UserId u) -> CenterCell& {
        CenterCell& entry = scr.at_center[scr.user_member[u]];
        if (entry.visit != visit) {
          entry.lb = LbRoadPivotDist(social_index_->user_road_pivot_dists(u),
                                     center_pivots);
          entry.share = -1.0;
          entry.visit = visit;
          entry.match = -1;
          ++stats->pair_bounds;
          if (auditor != nullptr) {
            auditor->OnPairDistanceBound(ctx, u, center.id, entry.lb);
          }
        }
        return entry;
      };
      auto bound_fails = [&](UserId u) {
        return reject(std::max(center.worst, cell(u).lb));
      };
      auto matches = [&](UserId u) {
        CenterCell& entry = cell(u);
        if (entry.match < 0) {
          entry.match =
              MatchScoreOverMask(ssn.social().Run(u), mask) >= query.theta;
        }
        return entry.match == 1;
      };
      // u's share of any objective here, max_{o∈ball} dist(u, o), read on
      // first use under the bound then in force: the row grows to this
      // center's ball only that far. An entry beyond the bound, or
      // unreachable, fails the share; a share that passes is exact and
      // stays so as the threshold tightens.
      auto share_fails = [&](UserId u) {
        CenterCell& entry = cell(u);
        if (entry.share < 0.0) {
          const double* dists = read_row(row_of(u), bound());
          entry.share = 0.0;
          for (int32_t slot : scr.read_slots) {
            entry.share = std::max(entry.share, dists[slot]);
          }
        }
        return entry.share >= kInfDistance || reject(entry.share);
      };

      for (size_t gi = next_live(0); gi < num_groups; gi = next_live(gi + 1)) {
        if ((++poll_stride & 63u) == 0 && InterruptRequested(options)) {
          return interrupted();
        }
        // Once an answer here ties `worst`, every group here is rejected;
        // the next center is then rejected by Lemma 7.
        if (reject(center.worst)) break;
        // Pivot lower bound of the pair objective (Lemma 5), member by
        // member, then the θ test, then the exact share; the first member
        // to fail any of them kills its groups.
        const std::vector<UserId>& group = groups[gi];
        auto failed = std::find_if(group.begin(), group.end(), bound_fails);
        if (failed == group.end()) {
          failed = std::find_if_not(group.begin(), group.end(), matches);
        }
        if (failed == group.end()) {
          ++stats->pairs_examined;
          failed = std::find_if(group.begin(), group.end(), share_fails);
        }
        if (failed != group.end()) {
          kill(*failed);
          continue;
        }
        // Every share passes, so their max, the exact objective
        // maxdist_RN(S, B(c, r)), does too. S and R are copied once the
        // loop ends, for the answers still kept.
        double obj = 0.0;
        for (UserId u : group) obj = std::max(obj, cell(u).share);
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
    }
    // The pending keys bound every later center's `worst` from below.
    if (stopped || (!pending.empty() && reject(frontier))) {
      stats->pois_pruned_distance += scr.centers.size() - ci + pending.size();
      break;
    }
    if (pending.empty()) break;
  }
  store_rows();
  const ScopedPhaseTimer pair_loop_phase(&stats->pair_loop_seconds);
  for (RankedAnswer& ranked : *best) {
    ranked.answer.users = groups[static_cast<size_t>(ranked.group_index)];
    const PoiId c = ranked.answer.center;
    const std::span<const PoiId> ball =
        poi_index_->ball_ids(c).first(poi_index_->BallPrefix(c, query.radius));
    ranked.answer.pois.assign(ball.begin(), ball.end());
    std::sort(ranked.answer.pois.begin(), ranked.answer.pois.end());
  }
  return Status::OK();
}

}  // namespace gpssn
