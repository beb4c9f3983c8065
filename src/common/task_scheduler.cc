#include "common/task_scheduler.h"

#include <algorithm>
#include <utility>

namespace gpssn {

bool TaskScheduler::RunsBefore(const Injected& a, const Injected& b) {
  if (a.priority.armed != b.priority.armed) return a.priority.armed;
  if (a.priority.armed && a.priority.deadline != b.priority.deadline) {
    return a.priority.deadline < b.priority.deadline;
  }
  return a.seq < b.seq;
}

TaskScheduler::TaskScheduler(int num_threads) {
  GPSSN_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    MutexLock lock(mu_);
    // Drain-then-stop: workers only exit once the injector is empty, so
    // every submitted task runs.
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void TaskScheduler::Submit(Task task, TaskPriority priority) {
  GPSSN_CHECK(task != nullptr);
  MutexLock lock(mu_);
  GPSSN_CHECK(!stop_);
  Injected entry;
  entry.seq = next_seq_++;
  entry.priority = priority;
  entry.task = std::move(task);
  injector_.push_back(std::move(entry));
  std::push_heap(injector_.begin(), injector_.end(),
                 [](const Injected& a, const Injected& b) {
                   return RunsBefore(b, a);
                 });
  work_cv_.NotifyOne();
}

void TaskScheduler::WaitAll() {
  MutexLock lock(mu_);
  // An explicit predicate loop (not a wait-lambda) keeps the guarded
  // reads inside this annotated function body.
  while (!injector_.empty() || running_ != 0) idle_cv_.Wait(mu_);
}

void TaskScheduler::WorkerLoop(int worker) {
  bool finished_task = false;
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      // The previous task (and its captures) is gone: only now may
      // WaitAll see it as finished.
      if (finished_task && --running_ == 0 && injector_.empty()) {
        idle_cv_.NotifyAll();
      }
      while (!stop_ && injector_.empty()) work_cv_.Wait(mu_);
      if (injector_.empty()) return;  // Stopped and drained.
      std::pop_heap(injector_.begin(), injector_.end(),
                    [](const Injected& a, const Injected& b) {
                      return RunsBefore(b, a);
                    });
      task = std::move(injector_.back().task);
      injector_.pop_back();
      ++running_;
    }
    task(worker);
    finished_task = true;
  }
}

}  // namespace gpssn
