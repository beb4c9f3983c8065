// Copyright 2026 The gpssn Authors.
//
// ServingCluster: the scatter-gather coordinator of the sharded serving
// layer (DESIGN.md §12). Splits a GpssnDatabase's candidate space into N
// shard scopes (partition.h), runs each shard's gather and refine stages
// as tasks on one worker pool, and merges per-shard answers with
// CROSS-SHARD INCUMBENT PRUNING:
//
//   1. GATHER   broadcast the query; every shard descends its own index
//               slice and returns candidate users/POIs plus an objective
//               lower bound. The shards together gather exactly what
//               Execute() gathers over the whole index.
//   2. PLAN     (driver thread) concatenate the shard candidate lists in
//               shard order — reproducing the single-node candidate order —
//               then PlanGroups (core/refinement.h), the Plan stage
//               Execute() runs, under the same options. Every refine
//               request of the query shares the one planned group list.
//   3. REFINE   wave 1: the shard with the SMALLEST lower bound refines
//               first (unbounded) and establishes the global incumbent.
//               Wave 2: every other shard whose bound exceeds the incumbent
//               is SKIPPED outright (QueryStats::skipped_shards); the rest
//               refine in parallel under the incumbent.
//   4. MERGE    shard answers carry their discovery rank (RankedAnswer,
//               core/query.h); the one RanksBefore orders first wins, which
//               is provably the exact answer the single-node pair loop
//               returns. Answers are byte-identical at any shard count.
//
// A shard owns nothing but its scope: every stage runs on whichever pool
// worker pops it, on that worker's GpssnProcessor, over the process's
// shared indexes, distance backend and distance cache. Each ShardRequest
// (transport.h) is one task on the TaskScheduler, prioritized by its
// query's deadline as in the batch executor, and the task sends its
// ShardReply into the coordinator's mailbox.
//
// The coordinator is a single-threaded event loop over that mailbox that
// PIPELINES up to max_inflight queries (per-query state machines keyed by
// a never-reused query_id), so a batch keeps every worker busy even
// though each individual query serializes wave 1. Stale replies — a stage
// answering after an error already completed its query — are dropped by
// query_id.

#ifndef GPSSN_SERVING_COORDINATOR_H_
#define GPSSN_SERVING_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/task_scheduler.h"
#include "core/database.h"
#include "core/social_scratch.h"
#include "serving/partition.h"
#include "serving/transport.h"

namespace gpssn::serving {

struct ServingOptions {
  /// Number of shards (>= 1). Trailing shards may own empty scopes when
  /// the indexes have fewer subtrees than shards.
  int num_shards = 4;
  /// Queries pipelined by the coordinator at once (>= 1). This is what
  /// scales batch QPS: while one query waits on its wave-1 refine, other
  /// queries' gathers and refines keep the remaining workers busy. It is
  /// also the flow control: the pool's queue and the reply mailbox are
  /// unbounded.
  int max_inflight = 8;
  /// Base processor options for every shard, with the database's
  /// defaults filled in (GpssnDatabase::WithDatabaseDefaults): a null
  /// `distance_backend` runs the database's backend, and a null
  /// `distance_cache` on that backend reads and fills the database's
  /// cache, the one the serial path and batch workers share. A cache set
  /// here is used instead.
  QueryOptions query;
  /// Deadline applied to every query (seconds; <= 0 = none), armed at
  /// submit; every shard request carries it as is, so time a request waits
  /// in the pool's queue counts against it.
  double default_deadline_seconds = 0.0;
  /// Worker threads (= processors) per shard: the pool runs num_shards ×
  /// shard_num_workers of them (values below 1 count as 1), and any worker
  /// runs any shard's stage.
  int shard_num_workers = 1;
  /// Ignored: shards have no private cache (see `query`). Kept only while
  /// perfbench still sets it; the ROADMAP lists its deletion.
  size_t shard_distance_cache_entries = 0;
};

/// An in-process N-shard serving cluster over one GpssnDatabase's indexes.
/// Not thread-safe: one thread drives Query/QueryBatch (the pool workers
/// are internal). CancelAll() may be called from any thread.
class ServingCluster {
 public:
  /// Builds the partition and the worker pool over the database's
  /// immutable indexes, backend and distance cache (which must outlive the
  /// cluster; dynamic maintenance must be quiesced while a cluster is
  /// attached, as for queries). Fails on an invalid partition or options.
  static Result<std::unique_ptr<ServingCluster>> Create(
      const GpssnDatabase& db, const ServingOptions& options = {});

  GPSSN_DISALLOW_COPY_AND_MOVE(ServingCluster);

  int num_shards() const { return options_.num_shards; }
  const ServingPartition& partition() const { return partition_; }

  /// Answers one query through the full scatter-gather path (a batch of
  /// one). Answers are byte-identical to GpssnDatabase::Query under the
  /// same options.
  Result<GpssnAnswer> Query(const GpssnQuery& query,
                            QueryStats* stats = nullptr);

  /// Runs `queries` through the pipelined event loop; results in input
  /// order. `stats` (optional) receives the batch aggregate, including the
  /// summed skipped/refined shard counters.
  std::vector<BatchQueryResult> QueryBatch(std::span<const GpssnQuery> queries,
                                           BatchStats* stats = nullptr);

  /// Raises the cluster-wide cancel flag: queued and running stages finish
  /// with Cancelled at their next cooperative poll. Cleared when the next
  /// batch starts.
  void CancelAll() { cancel_.store(true, std::memory_order_relaxed); }  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)

 private:
  enum class Phase { kGather, kRefineWave1, kRefineWave2 };

  /// One in-flight query's state machine.
  struct QueryState {
    size_t slot = 0;  // Index into the batch result vector.
    GpssnQuery query;
    QueryDeadline deadline;
    Phase phase = Phase::kGather;
    int outstanding = 0;  // Replies still expected in this phase.
    std::vector<ShardCandidates> per_shard;  // Indexed by shard.
    // Planned once, then shared by every refine request of the query.
    std::shared_ptr<const std::vector<std::vector<UserId>>> groups;
    double incumbent = kInfDistance;
    RankedAnswer best;  // The discovery-rank-first shard answer so far.
    int wave1_shard = -1;
    QueryStats stats;
    WallTimer submit_timer;
    WallTimer phase_timer;
  };

  ServingCluster(const GpssnDatabase& db, const ServingOptions& options,
                 ServingPartition partition);

  void StartQuery(uint64_t query_id, size_t slot, const GpssnQuery& query);
  /// Processes one shard reply; returns true when the query completed.
  bool HandleReply(QueryState* state, ShardReply* reply,
                   std::vector<BatchQueryResult>* results);
  void Plan(QueryState* state);
  /// Submits shard `shard`'s gather, or its refine under the query's
  /// incumbent, to the pool as one task at the query's deadline priority.
  void Send(QueryState* state, uint64_t query_id, int shard,
            ShardRequest::Kind kind);
  /// The task: runs `request`'s stage on `worker`'s processor and sends
  /// the reply into `replies_`.
  void RunStage(int worker, const ShardRequest& request);
  void Complete(QueryState* state, Status status,
                std::vector<BatchQueryResult>* results);

  /// Requests submitted plus replies sent (the `shard_msgs` cross-check).
  uint64_t messages_sent() const {
    return messages_sent_.load(
        std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  }

  const ServingOptions options_;
  const GpssnDatabase& db_;
  ServingPartition partition_;
  const QueryOptions shard_query_options_;  // Database defaults filled in.
  SocialScratch plan_scratch_;  // Plan's social scratch (PlanGroups).
  std::atomic<bool> cancel_{false};
  std::atomic<uint64_t> messages_sent_{0};
  uint64_t next_query_id_ = 1;  // Never reused (stale-reply detection).
  std::unordered_map<uint64_t, QueryState> inflight_;
  std::vector<std::unique_ptr<GpssnProcessor>> processors_;  // One per worker.
  Mailbox<ShardReply> replies_;
  // Last member: its destructor runs every queued stage, whose reply still
  // finds `replies_` and the state above alive.
  TaskScheduler scheduler_;
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_COORDINATOR_H_
