// Copyright 2026 The gpssn Authors.
//
// TaskScheduler: the worker pool behind the batch executor (one task per
// query) and the serving cluster (one task per shard gather or refine
// stage). Tasks Submit()ted from anywhere enter one global injector, a
// deadline-aware priority queue: earliest deadline first, and unarmed
// tasks follow every armed one in FIFO submission order. Under overload
// this is admission control: the queries that can still make their
// deadline run first. An idle worker pops the injector or sleeps.
//
// Every queue mutation happens under one mutex and every sleeper re-checks
// its predicate under that mutex, so there are no lost wakeups
// (tests/common/task_scheduler_test.cc hammers shutdown races; the TSAN
// preset runs it). The lock protocol is additionally PROVED at compile
// time: the mutex is a capability from common/sync.h with GUARDED_BY
// annotations on the protected state, checked by Clang Thread-Safety
// Analysis under -DGPSSN_THREAD_SAFETY=ON.

#ifndef GPSSN_COMMON_TASK_SCHEDULER_H_
#define GPSSN_COMMON_TASK_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
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

  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit TaskScheduler(int num_threads);
  ~TaskScheduler();

  GPSSN_DISALLOW_COPY_AND_MOVE(TaskScheduler);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task on the global injector. Never blocks; may be called
  /// from inside a running task.
  void Submit(Task task) { Submit(std::move(task), TaskPriority::None()); }
  void Submit(Task task, TaskPriority priority) GPSSN_EXCLUDES(mu_);

  /// Blocks until every queued task has been popped AND finished. Tasks
  /// submitted concurrently (e.g. from inside a task) are waited on too.
  void WaitAll() GPSSN_EXCLUDES(mu_);

 private:
  struct Injected {
    uint64_t seq = 0;
    TaskPriority priority;
    Task task;
  };
  // True when `a` should run strictly before `b`.
  static bool RunsBefore(const Injected& a, const Injected& b);

  void WorkerLoop(int worker) GPSSN_EXCLUDES(mu_);

  Mutex mu_;         // Guards the injector + the sleep/idle protocol.
  CondVar work_cv_;  // Signals workers: work or shutdown. Pairs mu_.
  CondVar idle_cv_;  // Signals WaitAll: fully drained. Pairs mu_.
  // Binary heap ordered by RunsBefore.
  std::vector<Injected> injector_ GPSSN_GUARDED_BY(mu_);
  uint64_t next_seq_ GPSSN_GUARDED_BY(mu_) = 0;
  bool stop_ GPSSN_GUARDED_BY(mu_) = false;
  // Popped-but-unfinished tasks. WaitAll waits until it is zero and the
  // injector is empty.
  int running_ GPSSN_GUARDED_BY(mu_) = 0;

  std::vector<std::thread> workers_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_TASK_SCHEDULER_H_
