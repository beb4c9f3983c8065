#include "serving/coordinator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/refinement.h"

namespace gpssn::serving {

Result<std::unique_ptr<ServingCluster>> ServingCluster::Create(
    const GpssnDatabase& db, const ServingOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.max_inflight < 1) {
    return Status::InvalidArgument("max_inflight must be >= 1");
  }
  auto partition = MakeServingPartition(db.social_index(), db.poi_index(),
                                        options.num_shards);
  if (!partition.ok()) return partition.status();
  return std::unique_ptr<ServingCluster>(
      // Private ctor keeps construction behind the validating factory, so
      // std::make_unique cannot reach it.
      new ServingCluster(db, options, std::move(*partition)));  // gpssn-lint: allow(raw-new-delete)
}

ServingCluster::ServingCluster(const GpssnDatabase& db,
                               const ServingOptions& options,
                               ServingPartition partition)
    : options_(options),
      db_(db),
      partition_(std::move(partition)),
      shard_query_options_(db.WithDatabaseDefaults(options.query)),
      scheduler_(options.num_shards * std::max(options.shard_num_workers, 1)) {
  processors_.reserve(scheduler_.num_threads());
  for (int w = 0; w < scheduler_.num_threads(); ++w) {
    processors_.push_back(std::make_unique<GpssnProcessor>(
        &db_.poi_index(), &db_.social_index()));
  }
}

void ServingCluster::Send(QueryState* state, uint64_t query_id, int shard,
                          ShardRequest::Kind kind) {
  ShardRequest request;
  request.kind = kind;
  request.shard = shard;
  request.query_id = query_id;
  request.query = state->query;
  request.deadline = state->deadline;
  if (kind == ShardRequest::Kind::kRefine) {
    request.incumbent = state->incumbent;  // kInfDistance for wave 1.
    request.centers = state->per_shard[shard].pois;
    request.groups = state->groups;
  }
  const TaskPriority priority =
      state->deadline.armed() ? TaskPriority::DeadlineAt(state->deadline.at())
                              : TaskPriority::None();
  ++state->stats.shard_msgs;
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  scheduler_.Submit(
      [this, request = std::move(request)](int worker) {
        RunStage(worker, request);
      },
      priority);
}

void ServingCluster::RunStage(int worker, const ShardRequest& request) {
  QueryOptions options = shard_query_options_;
  options.cancel = &cancel_;
  options.deadline = request.deadline;

  GpssnProcessor& processor = *processors_[worker];
  ShardReply reply;
  reply.shard = request.shard;
  reply.query_id = request.query_id;
  switch (request.kind) {
    case ShardRequest::Kind::kGather: {
      auto candidates = processor.GatherCandidates(
          request.query, options, partition_.scopes[request.shard],
          &reply.stats);
      if (candidates.ok()) {
        reply.candidates = std::move(*candidates);
      } else {
        reply.status = candidates.status();
      }
      break;
    }
    case ShardRequest::Kind::kRefine: {
      auto answer = processor.RefineCandidates(
          request.query, options, request.centers, *request.groups,
          request.incumbent, &reply.stats);
      if (answer.ok()) {
        reply.answer = std::move(*answer);
      } else {
        reply.status = answer.status();
      }
      break;
    }
  }
  // Counted before the send, so the event loop that receives the reply
  // also sees it counted.
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  replies_.Send(std::move(reply));
}

void ServingCluster::StartQuery(uint64_t query_id, size_t slot,
                                const GpssnQuery& query) {
  QueryState& state = inflight_[query_id];
  state.slot = slot;
  state.query = query;
  if (options_.default_deadline_seconds > 0.0) {
    state.deadline = QueryDeadline::After(options_.default_deadline_seconds);
  }
  state.phase = Phase::kGather;
  state.per_shard.resize(options_.num_shards);
  state.outstanding = options_.num_shards;
  state.submit_timer.Restart();
  state.phase_timer.Restart();
  for (int s = 0; s < options_.num_shards; ++s) {
    Send(&state, query_id, s, ShardRequest::Kind::kGather);
  }
}

void ServingCluster::Complete(QueryState* state, Status status,
                              std::vector<BatchQueryResult>* results) {
  BatchQueryResult& slot = (*results)[state->slot];
  slot.query = state->query;
  slot.status = std::move(status);
  if (slot.status.ok()) slot.answer = std::move(state->best.answer);
  slot.stats = state->stats;
  slot.latency_seconds = state->submit_timer.ElapsedSeconds();
  slot.worker = state->wave1_shard;
}

void ServingCluster::Plan(QueryState* state) {
  state->stats.serve_gather_seconds = state->phase_timer.ElapsedSeconds();
  state->phase_timer.Restart();

  // Concatenating the shard lists in shard order reproduces the
  // single-node I_S leaf-traversal candidate order (partition invariant
  // ORDER); the issuer lands at its traversal position inside its own
  // shard's list, or at the end if its leaf was node-pruned — exactly as
  // in Execute().
  std::vector<UserId> candidates;
  for (const ShardCandidates& sc : state->per_shard) {
    candidates.insert(candidates.end(), sc.users.begin(), sc.users.end());
  }
  if (std::find(candidates.begin(), candidates.end(), state->query.issuer) ==
      candidates.end()) {
    candidates.push_back(state->query.issuer);
  }

  std::vector<std::vector<UserId>> groups;
  PlanGroups(db_.ssn().social(), state->query, shard_query_options_,
             &plan_scratch_, &candidates, &groups, &state->stats);
  state->groups = std::make_shared<const std::vector<std::vector<UserId>>>(
      std::move(groups));
  state->stats.serve_plan_seconds = state->phase_timer.ElapsedSeconds();
  state->phase_timer.Restart();
}

bool ServingCluster::HandleReply(QueryState* state, ShardReply* reply,
                                 std::vector<BatchQueryResult>* results) {
  const uint64_t query_id = reply->query_id;
  if (!reply->status.ok()) {
    // Error short-circuit: the query completes now; replies still
    // outstanding from other shards arrive stale and are dropped by
    // query_id.
    Complete(state, std::move(reply->status), results);
    return true;
  }
  ++state->stats.shard_msgs;
  state->stats.MergeFrom(reply->stats);

  switch (state->phase) {
    case Phase::kGather: {
      state->per_shard[reply->shard] = std::move(reply->candidates);
      if (--state->outstanding > 0) return false;

      Plan(state);

      // Wave 1: the shard with the smallest objective lower bound refines
      // unbounded and establishes the incumbent. No candidate centers or
      // no groups anywhere = no feasible answer (found=false, OK status),
      // matching Execute().
      int wave1 = -1;
      for (int s = 0; s < options_.num_shards; ++s) {
        if (state->per_shard[s].pois.empty()) continue;
        if (wave1 == -1 || state->per_shard[s].lower_bound <
                               state->per_shard[wave1].lower_bound) {
          wave1 = s;
        }
      }
      if (wave1 == -1 || state->groups->empty()) {
        state->stats.serve_refine_seconds = state->phase_timer.ElapsedSeconds();
        Complete(state, Status::OK(), results);
        return true;
      }
      state->wave1_shard = wave1;
      state->phase = Phase::kRefineWave1;
      state->outstanding = 1;
      ++state->stats.refined_shards;
      Send(state, query_id, wave1, ShardRequest::Kind::kRefine);
      return false;
    }

    case Phase::kRefineWave1: {
      if (reply->answer.answer.found) {
        state->best = std::move(reply->answer);
        state->incumbent = state->best.answer.max_dist;
      }

      // Wave 2: broadcast the incumbent; skip any shard whose lower bound
      // already exceeds it (it cannot beat, or tie-and-win against, the
      // incumbent: its objectives are all > incumbent >= optimum). This is
      // the cross-shard incumbent prune.
      state->phase = Phase::kRefineWave2;
      state->outstanding = 0;
      for (int s = 0; s < options_.num_shards; ++s) {
        if (s == state->wave1_shard || state->per_shard[s].pois.empty()) {
          continue;
        }
        if (state->per_shard[s].lower_bound > state->incumbent) {
          ++state->stats.skipped_shards;
          continue;
        }
        ++state->stats.refined_shards;
        ++state->outstanding;
        Send(state, query_id, s, ShardRequest::Kind::kRefine);
      }
      if (state->outstanding == 0) {
        state->stats.serve_refine_seconds = state->phase_timer.ElapsedSeconds();
        Complete(state, Status::OK(), results);
        return true;
      }
      return false;
    }

    case Phase::kRefineWave2: {
      // Discovery-rank merge: the first answer in rank order wins — exactly
      // the first-encountered minimum of the single-node pair loop.
      // Wave-2 shards report ties with the incumbent (their reject is
      // strict against it) precisely so this comparison can decide them
      // by rank.
      if (reply->answer.answer.found &&
          (!state->best.answer.found ||
           RanksBefore(reply->answer, state->best))) {
        state->best = std::move(reply->answer);
        state->incumbent = state->best.answer.max_dist;
      }
      if (--state->outstanding > 0) return false;
      state->stats.serve_refine_seconds = state->phase_timer.ElapsedSeconds();
      Complete(state, Status::OK(), results);
      return true;
    }
  }
  return false;
}

std::vector<BatchQueryResult> ServingCluster::QueryBatch(
    std::span<const GpssnQuery> queries, BatchStats* stats) {
  cancel_.store(false, std::memory_order_relaxed);  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
  const uint64_t msgs_base = messages_sent();
  WallTimer batch_timer;

  std::vector<BatchQueryResult> results(queries.size());
  size_t next_submit = 0;
  size_t completed = 0;

  while (completed < queries.size()) {
    while (next_submit < queries.size() &&
           inflight_.size() < static_cast<size_t>(options_.max_inflight)) {
      StartQuery(next_query_id_++, next_submit, queries[next_submit]);
      ++next_submit;
    }

    ShardReply reply = replies_.Recv();
    auto it = inflight_.find(reply.query_id);
    if (it == inflight_.end()) continue;  // Stale reply: drop.
    if (HandleReply(&it->second, &reply, &results)) {
      inflight_.erase(it);
      ++completed;
    }
  }

  if (stats != nullptr) {
    BatchTally tally;
    for (const BatchQueryResult& r : results) tally.Add(r);
    *stats = tally.Finish(batch_timer.ElapsedSeconds());
    // Cross-check: the per-query shard_msgs counters must cover every
    // request and reply of this batch (stale replies included — they were
    // counted when sent).
    stats->totals.shard_msgs =
        std::max(stats->totals.shard_msgs, messages_sent() - msgs_base);
  }
  return results;
}

Result<GpssnAnswer> ServingCluster::Query(const GpssnQuery& query,
                                          QueryStats* stats) {
  std::vector<BatchQueryResult> results = QueryBatch({&query, 1});
  if (stats != nullptr) *stats = results[0].stats;
  if (!results[0].status.ok()) return results[0].status;
  return std::move(results[0].answer);
}

}  // namespace gpssn::serving
