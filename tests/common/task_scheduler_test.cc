// Unit and race tests for the TaskScheduler: drain-on-destruction,
// WaitAll semantics, earliest-deadline-first injector ordering, and a
// lost-wakeup hammer (shutdown races). The TSAN preset runs this test.

#include "common/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace gpssn {
namespace {

TEST(TaskSchedulerTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    TaskScheduler scheduler(4);
    for (int i = 0; i < 1000; ++i) {
      scheduler.Submit([&count](int) { ++count; });
    }
    // Destruction drains: every task runs even without WaitAll.
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(TaskSchedulerTest, WaitAllCoversTasksSubmittedFromTasks) {
  TaskScheduler scheduler(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    scheduler.Submit([&](int) {
      ++count;
      scheduler.Submit([&count](int) { ++count; });
    });
  }
  scheduler.WaitAll();
  EXPECT_EQ(count.load(), 100);
  scheduler.WaitAll();  // Idempotent on an empty scheduler.
}

TEST(TaskSchedulerTest, WorkerIndexIsInRange) {
  TaskScheduler scheduler(4);
  std::atomic<int> bad{0};
  for (int i = 0; i < 200; ++i) {
    scheduler.Submit([&](int worker) {
      if (worker < 0 || worker >= 4) ++bad;
    });
  }
  scheduler.WaitAll();
  EXPECT_EQ(bad.load(), 0);
}

TEST(TaskSchedulerTest, DeadlinePriorityOrdersInjector) {
  // Single worker, queue pre-loaded while it is blocked: release order must
  // be earliest-deadline-first, then unarmed tasks in FIFO order.
  TaskScheduler scheduler(1);
  Mutex gate;
  gate.Lock();
  std::atomic<bool> blocker_running{false};
  scheduler.Submit([&](int) {
    blocker_running.store(true);
    gate.Lock();  // Holds the worker until every Submit below landed.
    gate.Unlock();
  });
  // The blocker must have been POPPED (not just queued) before the batch
  // below lands, or it would compete with the armed tasks on priority.
  while (!blocker_running.load()) std::this_thread::yield();

  Mutex mu;
  std::vector<int> order;
  const auto now = std::chrono::steady_clock::now();
  auto record = [&mu, &order](int tag) {
    MutexLock lock(mu);
    order.push_back(tag);
  };
  using std::chrono::seconds;
  scheduler.Submit([&, record](int) { record(4); });  // Unarmed, FIFO 1st.
  scheduler.Submit([&, record](int) { record(2); },
                   TaskPriority::DeadlineAt(now + seconds(20)));
  scheduler.Submit([&, record](int) { record(5); });  // Unarmed, FIFO 2nd.
  scheduler.Submit([&, record](int) { record(1); },
                   TaskPriority::DeadlineAt(now + seconds(10)));
  scheduler.Submit([&, record](int) { record(3); },
                   TaskPriority::DeadlineAt(now + seconds(30)));
  gate.Unlock();
  scheduler.WaitAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(TaskSchedulerTest, NoLostWakeupsUnderShutdownHammer) {
  // Construct/submit/destroy in a tight loop: a lost wakeup would leave a
  // worker asleep with queued work and hang the draining destructor.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    {
      TaskScheduler scheduler(3);
      for (int i = 0; i < 8; ++i) {
        scheduler.Submit([&count](int) { ++count; });
      }
    }
    ASSERT_EQ(count.load(), 8) << "round " << round;
  }
}

}  // namespace
}  // namespace gpssn
