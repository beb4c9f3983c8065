// Unit and race tests for the TaskScheduler: drain-on-destruction,
// WaitAll semantics, earliest-deadline-first injector ordering, the
// Publish/Retire morsel-source barrier, and lost-wakeup hammers (shutdown
// and publish races). The TSAN preset runs this test.

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

// A morsel source handing out one increment per visit, up to a cap.
class CountingSource : public TaskScheduler::MorselSource {
 public:
  explicit CountingSource(int cap) : cap_(cap) {}
  bool RunMorsels(int /*worker*/) override {
    if (claimed_.fetch_add(1) >= cap_) return false;
    ++ran_;
    return true;
  }
  int ran() const { return ran_.load(); }

 private:
  const int cap_;
  std::atomic<int> claimed_{0};
  std::atomic<int> ran_{0};
};

TEST(TaskSchedulerTest, IdleWorkersVisitPublishedSources) {
  TaskScheduler scheduler(3);
  CountingSource source(50);
  scheduler.Publish(&source);
  // Workers are idle, so they must find the source without any Submit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (source.ran() < 50 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  scheduler.Retire(&source);
  EXPECT_EQ(source.ran(), 50);
  EXPECT_GT(scheduler.GetStats().morsel_visits, 0u);
}

TEST(TaskSchedulerTest, RetireBlocksUntilInFlightMorselsReturn) {
  // The source flips `inside` while a worker is in RunMorsels; Retire must
  // not return while any call is still in flight (this is the barrier that
  // lets sources live on the publisher's stack).
  class SlowSource : public TaskScheduler::MorselSource {
   public:
    bool RunMorsels(int) override {
      if (first_.exchange(false)) {
        inside.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        inside.store(false);
        return true;
      }
      return false;
    }
    std::atomic<bool> inside{false};

   private:
    std::atomic<bool> first_{true};
  };
  TaskScheduler scheduler(2);
  SlowSource source;
  scheduler.Publish(&source);
  while (!source.inside.load()) std::this_thread::yield();
  scheduler.Retire(&source);
  EXPECT_FALSE(source.inside.load()) << "Retire returned mid-RunMorsels";
}

TEST(TaskSchedulerTest, SaturatedWorkersPreferTasksOverMorsels) {
  // With every worker busy on injector tasks, a published source must be
  // left alone (the caller-runs-lane-0 degenerate case); once the tasks
  // drain, the now-idle workers pick it up.
  TaskScheduler scheduler(2);
  std::atomic<bool> release{false};
  std::atomic<int> busy{0};
  for (int i = 0; i < 2; ++i) {
    scheduler.Submit([&](int) {
      ++busy;
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (busy.load() < 2) std::this_thread::yield();
  CountingSource source(8);
  scheduler.Publish(&source);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(source.ran(), 0) << "a busy worker visited a morsel source";
  release.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (source.ran() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  scheduler.Retire(&source);
  EXPECT_EQ(source.ran(), 8);
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

TEST(TaskSchedulerTest, PublishRetireHammerNeverHangsOrLeaks) {
  // Rapid publish/retire cycles racing idle workers' source scans; each
  // round must observe every morsel exactly once and Retire must always
  // return (no lost publish wakeup, no stuck active count).
  TaskScheduler scheduler(4);
  for (int round = 0; round < 300; ++round) {
    CountingSource source(3);
    scheduler.Publish(&source);
    if ((round & 3) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    scheduler.Retire(&source);
    ASSERT_LE(source.ran(), 3);
  }
}

TEST(TaskSchedulerTest, StatsAreMonotoneAndConsistent) {
  TaskScheduler scheduler(2);
  const auto before = scheduler.GetStats();
  for (int i = 0; i < 32; ++i) scheduler.Submit([](int) {});
  scheduler.WaitAll();
  const auto after = scheduler.GetStats();
  EXPECT_EQ(after.tasks_run - before.tasks_run, 32u);
  EXPECT_GE(after.sources_published, before.sources_published);
}

}  // namespace
}  // namespace gpssn
