// Copyright 2026 The gpssn Authors.
//
// ServingCluster: the scatter-gather coordinator of the sharded serving
// layer (DESIGN.md §12). Splits a GpssnDatabase's candidate space across N
// ShardProcesses (partition.h), carries Query/Candidates/Refine/Answer
// messages over an in-process Transport (transport.h, wire.h), and merges
// per-shard answers with CROSS-SHARD INCUMBENT PRUNING:
//
//   1. GATHER   broadcast the query; every shard descends its own index
//               slice and returns candidate users/POIs plus an objective
//               lower bound (no δ cut — δ is a global property).
//   2. PLAN     (driver thread) concatenate the shard candidate lists in
//               shard order — reproducing the single-node candidate order —
//               then PlanGroups (core/refinement.h), the Plan stage
//               Execute() runs, under the same options.
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
// The coordinator is a single-threaded event loop over its transport inbox
// that PIPELINES up to max_inflight queries (per-query state machines keyed
// by a never-reused query_id), so a batch keeps every shard busy even
// though each individual query serializes wave 1. Stale replies — a shard
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
#include "core/database.h"
#include "core/social_scratch.h"
#include "serving/partition.h"
#include "serving/shard.h"
#include "serving/transport.h"
#include "serving/wire.h"

namespace gpssn::serving {

struct ServingOptions {
  /// Number of shards (>= 1). Trailing shards may own empty scopes when
  /// the indexes have fewer subtrees than shards.
  int num_shards = 4;
  /// Per-endpoint transport queue depth.
  size_t mailbox_capacity = 64;
  /// Queries pipelined by the coordinator at once (>= 1). This is what
  /// scales batch QPS: while one query waits on its wave-1 refine, other
  /// queries' gathers and refines keep the remaining shards busy.
  int max_inflight = 8;
  /// Base processor options for every shard. `distance_backend` left null
  /// is filled from the database (CH when the database built one);
  /// `subset_sampling` must be off — sampling is nondeterministic across
  /// partitions, and serving rejects it per query with InvalidArgument.
  QueryOptions query;
  /// Deadline applied to every query (seconds; <= 0 = none), armed at
  /// submit and re-encoded as seconds-remaining on each shard request.
  double default_deadline_seconds = 0.0;
  /// Scheduler workers (= pooled processors) per shard.
  int shard_num_workers = 1;
  /// Entry budget of each shard-private distance cache; 0 disables.
  size_t shard_distance_cache_entries = 1u << 18;
};

/// An in-process N-shard serving cluster over one GpssnDatabase's indexes.
/// Not thread-safe: one thread drives Query/QueryBatch (the shard workers
/// and pump threads are internal). CancelAll() may be called from any
/// thread.
class ServingCluster {
 public:
  /// Builds the partition, transport fabric, and shard processes over the
  /// database's immutable indexes (which must outlive the cluster; dynamic
  /// maintenance must be quiesced while a cluster is attached, as for
  /// queries). Fails on an invalid partition or options.
  static Result<std::unique_ptr<ServingCluster>> Create(
      const GpssnDatabase& db, const ServingOptions& options = {});

  ~ServingCluster();
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

  /// Raises the cluster-wide cancel flag: in-flight shard work finishes
  /// with Cancelled at its next cooperative poll. Cleared when the next
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
    std::vector<std::vector<UserId>> groups;
    double incumbent = kInfDistance;
    RankedAnswer best;  // The discovery-rank-first shard answer so far.
    int wave1_shard = -1;
    QueryStats stats;
    WallTimer submit_timer;
    WallTimer phase_timer;
  };

  ServingCluster(const GpssnDatabase& db, const ServingOptions& options,
                 ServingPartition partition);

  void StartQuery(uint64_t query_id, size_t slot, const GpssnQuery& query,
                  std::vector<BatchQueryResult>* results);
  /// Processes one shard reply; returns true when the query completed.
  bool HandleReply(QueryState* state, const TransportMessage& message,
                   std::vector<BatchQueryResult>* results);
  void Plan(QueryState* state);
  bool SendRefine(QueryState* state, uint64_t query_id, int shard,
                  double incumbent);
  bool SendGather(QueryState* state, uint64_t query_id, int shard);
  void Complete(QueryState* state, Status status,
                std::vector<BatchQueryResult>* results);

  double DeadlineSecondsRemaining(const QueryState& state) const;

  const ServingOptions options_;
  const GpssnDatabase& db_;
  ServingPartition partition_;
  QueryOptions shard_query_options_;  // Backend default filled in.
  SocialScratch plan_scratch_;        // Plan's social scratch (PlanGroups).
  std::atomic<bool> cancel_{false};
  uint64_t next_query_id_ = 1;  // Never reused (stale-reply detection).
  std::unordered_map<uint64_t, QueryState> inflight_;
  std::unique_ptr<InProcessTransport> transport_;
  std::vector<std::unique_ptr<ShardProcess>> shards_;  // After transport_.
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_COORDINATOR_H_
