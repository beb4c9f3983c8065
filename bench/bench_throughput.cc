// Batch-query throughput: sweeps the GpssnBatchExecutor worker count over
// a fixed randomized workload on the synthetic datasets and reports
// aggregate throughput, speedup over 1 worker, and latency percentiles.
// The indexes are immutable shared state; each worker owns one pooled
// processor, so scaling is bounded only by cores and memory bandwidth.
//
// The second section measures the shared cross-query distance cache on a
// repeated-issuer workload (cache off vs cold vs warm). When
// GPSSN_BENCH_JSON is set, the cache comparison is also written to that
// path as a JSON object (consumed by scripts/bench_smoke.sh).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "roadnet/distance_cache.h"

namespace gpssn::bench {
namespace {

std::vector<GpssnQuery> MakeWorkload(const GpssnDatabase& db, int count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<GpssnQuery> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    GpssnQuery q = DefaultQuery();
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 3 + static_cast<int>(rng.NextBounded(4));
    queries.push_back(q);
  }
  return queries;
}

std::vector<GpssnQuery> MakeRepeatedUserWorkload(const GpssnDatabase& db,
                                                 int count, int distinct_users,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<UserId> issuers;
  issuers.reserve(distinct_users);
  for (int i = 0; i < distinct_users; ++i) {
    issuers.push_back(
        static_cast<UserId>(rng.NextBounded(db.ssn().num_users())));
  }
  std::vector<GpssnQuery> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    GpssnQuery q = DefaultQuery();
    q.issuer = issuers[rng.NextBounded(issuers.size())];
    q.tau = 3 + static_cast<int>(rng.NextBounded(4));
    queries.push_back(q);
  }
  return queries;
}

Aggregate ToAggregate(const BatchStats& stats) {
  Aggregate agg;
  agg.queries = static_cast<int>(stats.queries);
  agg.total = stats.totals;
  return agg;
}

// Repeated-issuer batch, all workers sharing one DistanceCache: the "off"
// row is the seed behaviour, "cold" fills the cache while answering, and
// "warm" reuses the rows (the steady state of a production query mix where
// the same users issue queries repeatedly).
void RunCacheComparison() {
  const BenchConfig config = GetConfig();
  const int num_queries = config.queries * 8;
  const int num_workers = 4;
  std::printf(
      "\n=== Shared distance cache: repeated-issuer batch "
      "(%d queries over 24 issuers, %d workers) ===\n",
      num_queries, num_workers);

  // A denser road network than the worker sweep: the cache targets the
  // exact-distance phase, so the workload must actually be distance-bound
  // (on tiny graphs the social phases dominate and caching is a wash).
  DatasetOverrides overrides;
  overrides.num_road_vertices =
      std::max(8000, static_cast<int>(20000 * config.scale));
  auto db = BuildDatabase(MakeDataset("UNI", config.scale, overrides));
  const std::vector<GpssnQuery> workload =
      MakeRepeatedUserWorkload(*db, num_queries, /*distinct_users=*/24,
                               /*seed=*/43);

  BatchExecutorOptions off_options;
  off_options.num_workers = num_workers;
  GpssnBatchExecutor off_executor(&db->poi_index(), &db->social_index(),
                                  off_options);
  off_executor.ExecuteAll(workload);  // Arena warm-up.
  BatchStats off_stats;
  off_executor.ExecuteAll(workload, &off_stats);

  DistanceCache cache;
  BatchExecutorOptions cache_options = off_options;
  cache_options.query.distance_cache = &cache;
  GpssnBatchExecutor cache_executor(&db->poi_index(), &db->social_index(),
                                    cache_options);
  cache_executor.ExecuteAll(workload);  // Arena warm-up (fills the cache).
  cache.Clear();
  BatchStats cold_stats;
  cache_executor.ExecuteAll(workload, &cold_stats);
  BatchStats warm_stats;
  cache_executor.ExecuteAll(workload, &warm_stats);

  TablePrinter table({"config", "wall (s)", "qps", "speedup", "exact evals",
                      "row hit-rate"});
  const auto row = [&](const char* name, const BatchStats& stats) {
    const uint64_t rows =
        stats.totals.dist_cache_row_hits + stats.totals.dist_cache_row_misses;
    table.AddRow(
        {name, TablePrinter::Num(stats.wall_seconds, 3),
         TablePrinter::Num(stats.throughput_qps, 1),
         TablePrinter::Num(off_stats.throughput_qps > 0.0
                               ? stats.throughput_qps /
                                     off_stats.throughput_qps
                               : 0.0,
                           2) +
             "x",
         std::to_string(stats.totals.exact_distance_evals),
         rows > 0 ? Pct(static_cast<double>(stats.totals.dist_cache_row_hits) /
                        static_cast<double>(rows))
                  : "n/a"});
  };
  row("cache off", off_stats);
  row("cache cold", cold_stats);
  row("cache warm", warm_stats);
  table.Print();
  std::printf("off:  %s\n", PhaseBreakdown(ToAggregate(off_stats)).c_str());
  std::printf("warm: %s\n", PhaseBreakdown(ToAggregate(warm_stats)).c_str());
  std::printf("cache: %s\n", cache.GetStats().ToString().c_str());

  if (const char* json_path = std::getenv("GPSSN_BENCH_JSON")) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f != nullptr) {
      const double speedup = off_stats.throughput_qps > 0.0
                                 ? warm_stats.throughput_qps /
                                       off_stats.throughput_qps
                                 : 0.0;
      const uint64_t rows = warm_stats.totals.dist_cache_row_hits +
                            warm_stats.totals.dist_cache_row_misses;
      std::fprintf(
          f,
          "{\n"
          "  \"bench\": \"throughput_repeated_user_cache\",\n"
          "  \"queries\": %d,\n  \"workers\": %d,\n"
          "  \"cache_off_qps\": %.3f,\n  \"cache_cold_qps\": %.3f,\n"
          "  \"cache_warm_qps\": %.3f,\n  \"warm_speedup\": %.3f,\n"
          "  \"warm_row_hit_rate\": %.4f,\n"
          "  \"warm_exact_evals\": %llu,\n  \"off_exact_evals\": %llu\n"
          "}\n",
          num_queries, num_workers, off_stats.throughput_qps,
          cold_stats.throughput_qps, warm_stats.throughput_qps, speedup,
          rows > 0 ? static_cast<double>(warm_stats.totals.dist_cache_row_hits) /
                         static_cast<double>(rows)
                   : 0.0,
          static_cast<unsigned long long>(warm_stats.totals.exact_distance_evals),
          static_cast<unsigned long long>(off_stats.totals.exact_distance_evals));
      std::fclose(f);
      std::printf("wrote %s\n", json_path);
    } else {
      std::printf("could not open GPSSN_BENCH_JSON=%s\n", json_path);
    }
  }
}

void Run() {
  const BenchConfig config = GetConfig();
  const int num_queries = config.queries * 8;
  std::printf(
      "=== Batch throughput: GpssnBatchExecutor worker sweep "
      "(scale %.2f, %d queries, %u hardware threads) ===\n",
      config.scale, num_queries, std::thread::hardware_concurrency());

  TablePrinter table({"dataset", "workers", "wall (s)", "qps", "speedup",
                      "p50 (ms)", "p95 (ms)", "p99 (ms)", "found"});
  for (const char* name : {"UNI", "ZIPF"}) {
    auto db = BuildDatabase(MakeDataset(name, config.scale));
    const std::vector<GpssnQuery> workload =
        MakeWorkload(*db, num_queries, /*seed=*/42);
    double qps_at_1 = 0.0;
    for (int workers : {1, 2, 4, 8}) {
      BatchExecutorOptions options;
      options.num_workers = workers;
      GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(),
                                  options);
      // Warm-up pass populates every worker's arenas; the measured pass
      // then sees steady-state allocation behaviour.
      executor.ExecuteAll(workload);
      BatchStats stats;
      executor.ExecuteAll(workload, &stats);
      if (workers == 1) qps_at_1 = stats.throughput_qps;
      table.AddRow(
          {name, std::to_string(workers), TablePrinter::Num(stats.wall_seconds, 3),
           TablePrinter::Num(stats.throughput_qps, 1),
           TablePrinter::Num(
               qps_at_1 > 0.0 ? stats.throughput_qps / qps_at_1 : 0.0, 2) + "x",
           TablePrinter::Num(stats.latency_p50_seconds * 1e3, 2),
           TablePrinter::Num(stats.latency_p95_seconds * 1e3, 2),
           TablePrinter::Num(stats.latency_p99_seconds * 1e3, 2),
           std::to_string(stats.answers_found) + "/" +
               std::to_string(stats.queries)});
    }
  }
  table.Print();
  std::printf(
      "(expected: near-linear speedup up to the physical core count; "
      "flat on a single-core host)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  gpssn::bench::RunCacheComparison();
  return 0;
}
