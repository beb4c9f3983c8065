// TSAN-registered stress test for the batch executor on the unified
// scheduler: batch cancellation and tight deadlines race queries that are
// running on the pool's workers. A cancel or deadline may land at any point
// of the descent or refinement; the abandon must be clean (no failure, no
// hang, and under TSAN no worker touching a finished query's state).

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/executor.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

GpssnDatabase MakeStressDb(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 300;
  data.num_pois = 100;
  data.num_users = 140;
  data.num_topics = 12;
  data.seed = seed;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 5.0;
  return GpssnDatabase(MakeSynthetic(data), build);
}

// Mostly tiny queries with a heavy tail (big radius: long refinement), so
// a cancel or deadline lands at every stage of a running query.
std::vector<GpssnQuery> MixedWorkload(const GpssnDatabase& db, int count,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<GpssnQuery> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = 0.2;
    q.theta = 0.2;
    q.radius = (i % 5 == 0) ? 4.5 : 0.8;
    queries.push_back(q);
  }
  return queries;
}

TEST(SchedulerStressTest, CancellationRacesRunningQueries) {
  GpssnDatabase db = MakeStressDb(32);
  const std::vector<GpssnQuery> workload = MixedWorkload(db, 30, 9);
  BatchExecutorOptions options;
  options.num_workers = 4;
  GpssnBatchExecutor executor(&db.poi_index(), &db.social_index(), options);

  for (int round = 0; round < 10; ++round) {
    for (const GpssnQuery& q : workload) executor.Submit(q);
    std::thread canceller([&executor, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
      executor.CancelAll();
    });
    const auto results = executor.Wait();
    canceller.join();
    for (const auto& r : results) {
      // Finished or cancelled — never failed, never hung.
      EXPECT_TRUE(r.status.ok() || r.status.IsCancelled())
          << r.status.ToString();
    }
  }
}

TEST(SchedulerStressTest, TightDeadlinesRaceRunningQueries) {
  GpssnDatabase db = MakeStressDb(33);
  const std::vector<GpssnQuery> workload = MixedWorkload(db, 30, 11);
  BatchExecutorOptions options;
  options.num_workers = 4;
  GpssnBatchExecutor executor(&db.poi_index(), &db.social_index(), options);

  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i < workload.size(); ++i) {
      // Deadlines from "already expired" to "comfortably long": the
      // abandon must be clean at any point of the descent or refinement.
      executor.Submit(workload[i], 1e-6 * static_cast<double>(i * i));
    }
    const auto results = executor.Wait();
    for (const auto& r : results) {
      EXPECT_TRUE(r.status.ok() || r.status.IsDeadlineExceeded())
          << r.status.ToString();
    }
  }
}

}  // namespace
}  // namespace gpssn
