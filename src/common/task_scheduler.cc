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

TaskScheduler::TaskScheduler(int num_threads) : num_threads_(num_threads) {
  GPSSN_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (int w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    MutexLock lock(mu_);
    // Drain-then-stop: workers only exit once every queue is empty, so
    // every submitted task runs.
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void TaskScheduler::Submit(Task task, TaskPriority priority) {
  GPSSN_CHECK(task != nullptr);
  {
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
    queued_.fetch_add(1);
    work_cv_.NotifyOne();
  }
}

void TaskScheduler::WaitAll() {
  MutexLock lock(mu_);
  // Order matters: queued_ first. A pop increments running_ BEFORE
  // decrementing queued_ (both seq_cst), so reading queued_ == 0 here
  // guarantees the later running_ read sees every in-flight task. An
  // explicit predicate loop (not a wait-lambda) keeps the guarded
  // protocol inside this annotated function body.
  while (!(queued_.load() == 0 && running_.load() == 0)) {
    idle_cv_.Wait(mu_);
  }
}

void TaskScheduler::Publish(MorselSource* source) {
  GPSSN_CHECK(source != nullptr);
  {
    WriterMutexLock lock(sources_mu_);
    auto slot = std::make_shared<SourceSlot>();
    slot->source = source;
    sources_.push_back(std::move(slot));
    source_epoch_.fetch_add(1, std::memory_order_release);
    stat_sources_published_.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
  }
  // Under mu_, so a worker between its fruitless scan and its sleep
  // cannot miss the signal.
  MutexLock lock(mu_);
  work_cv_.NotifyAll();
}

void TaskScheduler::Retire(MorselSource* source) {
  std::shared_ptr<SourceSlot> slot;
  {
    WriterMutexLock lock(sources_mu_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
      if ((*it)->source == source) {
        slot = *it;
        sources_.erase(it);
        break;
      }
    }
  }
  GPSSN_CHECK(slot != nullptr);  // Publish/Retire must pair up.
  MutexLock lock(slot->mu);
  slot->retired = true;
  while (slot->active != 0) slot->cv.Wait(slot->mu);
  // No worker is inside the source and none can enter (retired): the
  // caller again exclusively owns everything the source references.
}

TaskScheduler::Stats TaskScheduler::GetStats() const {
  Stats stats;
  // Independent monotone counters; a snapshot need not be mutually
  // consistent (callers diff two snapshots taken around a batch).
  stats.tasks_run = stat_tasks_run_.load(std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
  stats.morsel_visits = stat_morsel_visits_.load(std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
  stats.sources_published =
      stat_sources_published_.load(std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
  return stats;
}

bool TaskScheduler::PopInjector(Task* task) {
  {
    MutexLock lock(mu_);
    if (injector_.empty()) return false;
    std::pop_heap(injector_.begin(), injector_.end(),
                  [](const Injected& a, const Injected& b) {
                    return RunsBefore(b, a);
                  });
    *task = std::move(injector_.back().task);
    injector_.pop_back();
  }
  running_.fetch_add(1);
  queued_.fetch_sub(1);
  stat_tasks_run_.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
  return true;
}

bool TaskScheduler::VisitSources(int worker) {
  std::vector<std::shared_ptr<SourceSlot>> snapshot;
  {
    // Shared hold: the scan only reads the registry; Publish/Retire are
    // the writers.
    ReaderMutexLock lock(sources_mu_);
    if (sources_.empty()) return false;
    snapshot = sources_;
  }
  // Round-robin start so concurrent idle workers spread over the sources
  // instead of ganging up on the first.
  const size_t start =
      next_source_.fetch_add(1, std::memory_order_relaxed) % snapshot.size();  // gpssn-lint: relaxed(round-robin cursor; any start index works)
  for (size_t i = 0; i < snapshot.size(); ++i) {
    SourceSlot& slot = *snapshot[(start + i) % snapshot.size()];
    {
      MutexLock lock(slot.mu);
      if (slot.retired) continue;
      ++slot.active;
    }
    const bool contributed = slot.source->RunMorsels(worker);
    {
      MutexLock lock(slot.mu);
      if (--slot.active == 0 && slot.retired) slot.cv.NotifyAll();
    }
    if (contributed) {
      stat_morsel_visits_.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stats counter)
      return true;
    }
  }
  return false;
}

void TaskScheduler::RunTask(Task task, int worker) {
  task(worker);
  running_.fetch_sub(1);
  if (queued_.load() == 0 && running_.load() == 0) {
    MutexLock lock(mu_);
    idle_cv_.NotifyAll();
  }
}

void TaskScheduler::WorkerLoop(int worker) {
  for (;;) {
    Task task;
    if (PopInjector(&task)) {
      RunTask(std::move(task), worker);
      continue;
    }
    // Sample the publish epoch BEFORE the scan: a source published after a
    // fruitless scan flips the wait predicate, so the wakeup cannot be
    // lost between scan and sleep.
    const uint64_t epoch = source_epoch_.load(std::memory_order_acquire);
    if (VisitSources(worker)) continue;
    MutexLock lock(mu_);
    // Explicit predicate loop: the guarded read of stop_ stays inside this
    // annotated body, under the capability the notifier holds.
    while (!(stop_ || queued_.load(std::memory_order_relaxed) > 0 ||  // gpssn-lint: relaxed(sleep hint; mu_ pairs the wakeup)
             source_epoch_.load(std::memory_order_relaxed) != epoch)) {  // gpssn-lint: relaxed(sleep hint; mu_ pairs the wakeup)
      work_cv_.Wait(mu_);
    }
    if (stop_ && queued_.load(std::memory_order_relaxed) == 0) return;  // gpssn-lint: relaxed(sleep hint; mu_ pairs the wakeup)
  }
}

}  // namespace gpssn
