// Copyright 2026 The gpssn Authors.
//
// TaskScheduler: the execution substrate behind the batch executor and
// serving shards (one task per query) and the morselized index builds
// (common/parallel_for.h) — in the style of HyPer's morsel-driven
// engine.
//
// Two ways work enters the scheduler, in the order an idle worker
// consumes them:
//
//   1. The GLOBAL INJECTOR (deadline-aware priority queue): tasks
//      Submit()ted from anywhere, e.g. query root tasks from the batch
//      executor. Earliest-deadline-first; unarmed tasks follow every armed
//      one in FIFO submission order — under overload this is admission
//      control: the queries that can still make their deadline run first.
//   2. MORSEL SOURCES: transient suppliers of fine-grained work (e.g. the
//      chunks of one CH contraction round) published via Publish() by a
//      caller that also works through them itself. Only a worker with
//      nothing else to do visits one, so a saturated scheduler costs the
//      publisher exactly one registry insert + remove — no queued helper
//      tasks.
//
// Lifetime contract for morsel sources: Publish(src) makes `src` visible
// to idle workers; Retire(src) removes it and BLOCKS until every
// in-flight RunMorsels() call has returned. After Retire() no worker
// touches `src` again, so a source may live on the publisher's stack frame
// and reference stack state.
//
// Every queue mutation happens under a mutex and every sleeper re-checks
// its predicate under the same mutex the notifier holds, so there are no
// lost wakeups (tests/common/task_scheduler_test.cc hammers shutdown and
// publish races; the TSAN preset runs it). The lock protocols are
// additionally PROVED at compile time: every mutex is a capability from
// common/sync.h with GUARDED_BY annotations on the protected state, checked
// by Clang Thread-Safety Analysis under -DGPSSN_THREAD_SAFETY=ON.
//
// Declared acquisition order, registry before slot (SourceSlot::mu)
// before injector (checked by scripts/lint.py rule lock-order; in practice
// no two of these are ever held at once — the declaration pins the safe
// direction should a nesting ever appear):
// gpssn-lock-order: sources_mu_ -> mu -> mu_

#ifndef GPSSN_COMMON_TASK_SCHEDULER_H_
#define GPSSN_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"

namespace gpssn {

/// Injector ordering: earliest armed deadline first, then FIFO. Unarmed
/// tasks run after every armed one (they cannot miss anything by waiting).
struct TaskPriority {
  bool armed = false;
  std::chrono::steady_clock::time_point deadline{};

  static TaskPriority None() { return {}; }
  static TaskPriority DeadlineAt(std::chrono::steady_clock::time_point at) {
    TaskPriority p;
    p.armed = true;
    p.deadline = at;
    return p;
  }
};

/// Fixed-size task scheduler. Tasks are `void(int worker)`
/// callables; `worker` ∈ [0, num_threads) identifies the executing worker
/// and is stable for that thread's lifetime. Destruction drains every
/// queued task first (each submitted task runs exactly once).
class TaskScheduler {
 public:
  using Task = std::function<void(int)>;

  /// A transient supply of morsels, published by a running task.
  /// RunMorsels() is called on idle workers, possibly on several
  /// concurrently; implementations must be thread-safe. Return true if any
  /// morsel work was done (the scheduler may offer the source again),
  /// false if the source had nothing for this worker.
  class MorselSource {
   public:
    virtual ~MorselSource() = default;
    virtual bool RunMorsels(int worker) = 0;
  };

  /// Cumulative counters since construction (monotone; diff two snapshots
  /// to meter one batch).
  struct Stats {
    uint64_t tasks_run = 0;       // Injector tasks executed.
    uint64_t morsel_visits = 0;   // RunMorsels calls that reported work.
    uint64_t sources_published = 0;
  };

  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit TaskScheduler(int num_threads);
  ~TaskScheduler();

  GPSSN_DISALLOW_COPY_AND_MOVE(TaskScheduler);

  int num_threads() const { return num_threads_; }

  /// Enqueues one task on the global injector. Never blocks; may be called
  /// from inside a running task.
  void Submit(Task task) { Submit(std::move(task), TaskPriority::None()); }
  void Submit(Task task, TaskPriority priority) GPSSN_EXCLUDES(mu_);

  /// Blocks until every queued task has been popped AND finished. Tasks
  /// submitted concurrently (e.g. from inside a task) are waited on too.
  void WaitAll() GPSSN_EXCLUDES(mu_);

  /// Publishes `source` for idle workers to take morsels from.
  void Publish(MorselSource* source) GPSSN_EXCLUDES(sources_mu_, mu_);
  /// Unpublishes `source` and blocks until every in-flight RunMorsels()
  /// call on it has returned. Must be called exactly once per Publish(),
  /// before the source is destroyed.
  void Retire(MorselSource* source) GPSSN_EXCLUDES(sources_mu_);

  Stats GetStats() const;

 private:
  struct Injected {
    uint64_t seq = 0;
    TaskPriority priority;
    Task task;
  };
  // True when `a` should run strictly before `b`.
  static bool RunsBefore(const Injected& a, const Injected& b);

  // One published source. Slots are shared_ptr so a worker holding one
  // across a RunMorsels call never races slot destruction; `retired`
  // blocks new entries and `active` lets Retire wait for current ones.
  // `source` is written once before the slot becomes visible (under
  // sources_mu_) and read-only afterwards, so it carries no guard.
  struct SourceSlot {
    Mutex mu;
    CondVar cv;  // Pairs mu: Retire waits for active == 0.
    MorselSource* source = nullptr;
    int active GPSSN_GUARDED_BY(mu) = 0;
    bool retired GPSSN_GUARDED_BY(mu) = false;
  };

  void WorkerLoop(int worker) GPSSN_EXCLUDES(mu_);
  bool PopInjector(Task* task) GPSSN_EXCLUDES(mu_);
  bool VisitSources(int worker) GPSSN_EXCLUDES(sources_mu_);
  void RunTask(Task task, int worker) GPSSN_EXCLUDES(mu_);

  // Immutable after construction; workers read it while the constructor
  // is still emplacing into workers_, so it must not alias that vector.
  const int num_threads_;

  mutable Mutex mu_;        // Guards the injector + the sleep/idle protocol.
  CondVar work_cv_;         // Signals workers: work or shutdown. Pairs mu_.
  CondVar idle_cv_;         // Signals WaitAll: fully drained. Pairs mu_.
  // Binary heap ordered by RunsBefore.
  std::vector<Injected> injector_ GPSSN_GUARDED_BY(mu_);
  uint64_t next_seq_ GPSSN_GUARDED_BY(mu_) = 0;
  bool stop_ GPSSN_GUARDED_BY(mu_) = false;

  SharedMutex sources_mu_;  // Registry lock: writers publish/retire,
                            // readers snapshot for a morsel scan.
  std::vector<std::shared_ptr<SourceSlot>> sources_
      GPSSN_GUARDED_BY(sources_mu_);
  std::atomic<uint64_t> source_epoch_{0};  // Bumped on Publish.
  std::atomic<size_t> next_source_{0};     // Round-robin pick cursor.

  // queued_ counts tasks in the injector; running_ counts
  // popped-but-unfinished tasks. WaitAll waits for both to hit zero.
  std::atomic<int64_t> queued_{0};
  std::atomic<int64_t> running_{0};

  std::atomic<uint64_t> stat_tasks_run_{0};
  std::atomic<uint64_t> stat_morsel_visits_{0};
  std::atomic<uint64_t> stat_sources_published_{0};

  std::vector<std::thread> workers_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_TASK_SCHEDULER_H_
