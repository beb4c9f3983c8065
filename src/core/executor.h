// Copyright 2026 The gpssn Authors.
//
// GpssnBatchExecutor: the concurrent batch-query entry point. A
// TaskScheduler (common/task_scheduler.h) in which every
// worker owns one pooled GpssnProcessor — reusing its Dijkstra/BFS arenas
// across queries — over the shared immutable PoiIndex/SocialIndex. Query
// root tasks enter the scheduler's deadline-aware injector (earliest
// deadline first), so under overload the queries that can still make their
// deadline run first. Supports submit-many/wait-all, per-query completion
// callbacks, per-query deadlines with cooperative cancellation
// (QueryOptions::deadline, polled inside the processor's descent loops),
// batch-wide cancellation, and aggregation of per-query QueryStats into a
// BatchStats (latency percentiles, throughput, pruning-counter totals).
//
// Threading model: the indexes are immutable after construction, so workers
// share them without synchronization. Each worker aggregates into its own
// cache-line-padded lane — no locks or atomics on the hot path; lanes are
// merged on Wait(), after the scheduler's drain barrier has published them.
// The executor therefore owns no mutex of its own: every lock it relies on
// lives inside TaskScheduler, behind the capability-annotated wrappers of
// common/sync.h (checked by Clang TSA under GPSSN_THREAD_SAFETY). The only
// shared mutable executor state is the cancel_ flag, a plain relaxed
// atomic: it is a cooperative latency hint, and the scheduler's WaitAll
// drain is the ordering barrier for everything the workers wrote.

#ifndef GPSSN_CORE_EXECUTOR_H_
#define GPSSN_CORE_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/query.h"

namespace gpssn {

struct BatchExecutorOptions {
  /// Worker-pool size (= number of pooled processors).
  int num_workers = 4;
  /// Base processor options applied to every query (per-query deadlines
  /// and the batch cancel flag are layered on top).
  QueryOptions query;
  /// Deadline applied to queries submitted without an explicit one;
  /// <= 0 means no deadline. Deadlines are armed at SUBMIT time, so queue
  /// waiting counts against them.
  double default_deadline_seconds = 0.0;
};

/// Outcome of one query of a batch, in submission order.
struct BatchQueryResult {
  GpssnQuery query;
  /// OK, InvalidArgument, DeadlineExceeded, or Cancelled.
  Status status;
  /// Meaningful only when status.ok().
  GpssnAnswer answer;
  QueryStats stats;
  /// Submit-to-completion wall time (includes queue waiting).
  double latency_seconds = 0.0;
  /// Index of the worker that ran the query.
  int worker = -1;
};

/// Batch-level aggregate: counts by outcome, wall-clock throughput,
/// latency percentiles, and the sum of every per-query pruning counter.
struct BatchStats {
  uint64_t queries = 0;
  uint64_t succeeded = 0;          // status.ok().
  uint64_t answers_found = 0;      // answer.found among the succeeded.
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;             // Any other non-OK status.

  /// First-submit-to-Wait wall time and the derived aggregate throughput.
  double wall_seconds = 0.0;
  double throughput_qps = 0.0;

  /// Submit-to-completion latency distribution (seconds).
  double latency_mean_seconds = 0.0;
  double latency_p50_seconds = 0.0;
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  double latency_max_seconds = 0.0;

  /// Per-query QueryStats summed across the batch (cpu_seconds is the sum
  /// of per-query CPU times, i.e. aggregate work, not wall time).
  QueryStats totals;

  /// Always 0: the scheduler has no work stealing. Kept for the readers of
  /// the field (the perfbench per-layer report).
  uint64_t scheduler_tasks_stolen = 0;

  std::string ToString() const;
};

/// Concurrent batch executor over one pair of immutable indexes. Not
/// itself thread-safe: one thread drives Submit/Wait (the workers are
/// internal). Reusable: Wait() ends one batch and the next Submit starts
/// another.
class GpssnBatchExecutor {
 public:
  /// Completion callback, invoked on the worker thread right after the
  /// result slot is filled. Must be thread-safe against other callbacks.
  using Callback = std::function<void(const BatchQueryResult&)>;

  /// Both indexes must be built over the same SpatialSocialNetwork and
  /// must outlive the executor.
  GpssnBatchExecutor(const PoiIndex* poi_index,
                     const SocialIndex* social_index,
                     const BatchExecutorOptions& options = {});
  ~GpssnBatchExecutor();

  GPSSN_DISALLOW_COPY_AND_MOVE(GpssnBatchExecutor);

  int num_workers() const { return scheduler_.num_threads(); }

  /// Enqueues one query under the default deadline; returns its index in
  /// the batch result vector.
  size_t Submit(const GpssnQuery& query);
  /// Enqueues one query with an explicit deadline (seconds from now;
  /// <= 0 = none) and an optional completion callback.
  size_t Submit(const GpssnQuery& query, double deadline_seconds,
                Callback callback = nullptr);

  /// Blocks until every submitted query has finished; returns the results
  /// in submission order and (optionally) the batch aggregate, then resets
  /// for the next batch.
  std::vector<BatchQueryResult> Wait(BatchStats* stats = nullptr);

  /// Submit() every query, then Wait().
  std::vector<BatchQueryResult> ExecuteAll(std::span<const GpssnQuery> queries,
                                           BatchStats* stats = nullptr);

  /// Raises the batch cancel flag: queued and in-flight queries finish
  /// with a Cancelled status (in-flight ones at their next cooperative
  /// poll). Wait() clears the flag for the next batch.
  void CancelAll() { cancel_.store(true, std::memory_order_relaxed); }  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)

 private:
  // Per-worker aggregation lane. Each worker writes only its own lane
  // while the batch runs (lock-free by partitioning); Wait() reads them
  // after the pool barrier.
  struct alignas(64) WorkerLane {
    QueryStats totals;
    std::vector<double> latencies;
    uint64_t succeeded = 0;
    uint64_t answers_found = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
    void Reset();
  };

  void RunOne(int worker, BatchQueryResult* slot, QueryDeadline deadline,
              WallTimer submit_timer, const Callback& callback);

  const BatchExecutorOptions options_;
  std::vector<std::unique_ptr<GpssnProcessor>> processors_;  // One per worker.
  std::vector<WorkerLane> lanes_;
  std::atomic<bool> cancel_{false};

  // Current batch (owned by the driving thread; workers only touch the
  // stable slots handed to them — deque growth never invalidates those).
  std::deque<BatchQueryResult> results_;
  WallTimer batch_timer_;

  TaskScheduler scheduler_;  // Last member: joins before the state above.
};

}  // namespace gpssn

#endif  // GPSSN_CORE_EXECUTOR_H_
