// End-to-end benchmark of gpssn: one named workload per run.
//
//   gpssn_perfbench --workload <uni-ch|gowcol-dense|zipf-maint> --seed <n>
//                   --seconds <s> --trace <0|1>
//                   [--trace-file <path>] [--git-sha <id>]
//
// --trace 0 measures the end-to-end metrics (set-up time, serial latency,
// batch and cluster throughput, maintenance latency, all in process CPU
// time, and peak memory) with no tracing at all. --trace 1 is a separate
// run that records spans around the calls this file makes into each
// layer's public API and reports the per-layer metrics. Every answer of
// every path is checked (checker.h); checking runs outside every timed
// region. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the line before it
// records the run's context. The exit code is 1 when any check failed.
// METRICS.md lists what each metric means and what should move it.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/refinement.h"
#include "index/pivot_select.h"
#include "serving/coordinator.h"
#include "serving/partition.h"
#include "ssn/dataset.h"
#include "trace.h"

#ifndef GPSSN_PERFBENCH_BUILD_TYPE
#define GPSSN_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gpssn;  // NOLINT(google-build-using-namespace)

// ---------------------------------------------------------------------------
// Workloads.

struct Spec {
  const char* name;
  const char* dataset;  // UNI, ZIPF or GowCol.
  double scale;         // Of the paper's Table 2 sizes.
  DistanceBackendKind backend;
  size_t cache_entries;  // Shared DistanceCache capacity; 0 = no cache.
  bool zipf_issuers;     // Zipf(s=1) issuers instead of uniform ones.
  int chunk_size;        // Queries per cycle.
  int cycles;            // Cycles of a 20-second run; scaled with --seconds.
  int min_cycles;        // Floor, so p95 always has >= 10 samples beyond it.
};

// zipf-maint's shared cache holds 2^19 (user, poi) distance entries: room
// for the hot issuers' rows (the top 20 issuers touch about 120k entries),
// while a 20-second run inserts over ten times as many. The context line
// reports the capacity, insertions, evictions and row hit ratio.
constexpr size_t kZipfCacheEntries = size_t{1} << 19;

constexpr Spec kSpecs[] = {
    {"uni-ch", "UNI", 0.2, DistanceBackendKind::kContractionHierarchy, 0,
     false, 160, 6, 2},
    {"gowcol-dense", "GowCol", 0.05, DistanceBackendKind::kDijkstra, 0, false,
     40, 2, 5},
    {"zipf-maint", "ZIPF", 0.2, DistanceBackendKind::kDijkstra,
     kZipfCacheEntries, true, 128, 7, 2},
};

constexpr int kSetupReps = 5;
constexpr int kWarmupQueries = 8;    // Untimed, before the first cycle.
constexpr int kBurstsPerCycle = 4;
// A run stops early, after at least spec.min_cycles, once it has taken
// this many times --seconds: on a host that runs other guests a cycle can
// take twice as long as on a quiet one, or longer.
constexpr double kMaxSlowdown = 2.5;
constexpr int kBurstPois = 2;   // AddPoi calls per maintenance burst.
constexpr int kBurstUsers = 4;  // UpdateUserInterests calls per burst.
constexpr double kDrift = 0.1;
// Zipf popularity is a property of the network: the rank -> user mapping
// is fixed, and the run's seed only drives the draws.
constexpr uint64_t kPopularitySeed = 0x9a1f;

SpatialSocialNetwork MakeNetwork(const Spec& spec) {
  const std::string_view dataset = spec.dataset;
  if (dataset == "GowCol") return MakeRealLike(GowColOptions(spec.scale, 8));
  SyntheticSsnOptions options;
  const bool zipf = dataset == "ZIPF";
  options.distribution = zipf ? Distribution::kZipf : Distribution::kUniform;
  options.seed = zipf ? 12 : 11;
  options.num_road_vertices = static_cast<int>(20000 * spec.scale);
  options.num_pois = static_cast<int>(10000 * spec.scale);
  options.num_users = static_cast<int>(30000 * spec.scale);
  return MakeSynthetic(options);
}

GpssnBuildOptions BuildOptions(const Spec& spec) {
  GpssnBuildOptions options;
  options.distance_backend = spec.backend;
  options.distance_cache_entries = spec.cache_entries;
  return options;
}

std::unique_ptr<serving::ServingCluster> MakeCluster(const GpssnDatabase& db,
                                                     const Spec& spec,
                                                     int shards) {
  serving::ServingOptions options;
  options.num_shards = shards;
  options.shard_num_workers = 1;
  options.shard_distance_cache_entries = spec.cache_entries;
  auto cluster = serving::ServingCluster::Create(db, options);
  GPSSN_CHECK(cluster.ok());
  return std::move(*cluster);
}

// Issuers (and the users a maintenance burst touches) come from the run's
// seed: uniform, or Zipf(s=1) over a fixed permutation of the users.
class IssuerStream {
 public:
  IssuerStream(const Spec& spec, int num_users, uint64_t seed)
      : num_users_(num_users), rng_(seed) {
    if (spec.zipf_issuers) {
      rank_to_user_.resize(num_users);
      for (int u = 0; u < num_users; ++u) rank_to_user_[u] = u;
      Rng popularity(kPopularitySeed);
      popularity.Shuffle(&rank_to_user_);
      double total = 0.0;
      for (int k = 0; k < num_users; ++k) {
        total += 1.0 / (k + 1);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
    }
  }

  UserId Draw(Rng* rng) const {
    if (zipf_cdf_.empty()) {
      return static_cast<UserId>(rng->NextBounded(num_users_));
    }
    return AtQuantile(rng->UniformDouble());
  }

  // Table 3 defaults: τ=5, γ=θ=0.3, r=2. Zipf draws are stratified (the
  // j-th of n takes its quantile from [j/n, (j+1)/n)) and then shuffled,
  // so every chunk holds each hot issuer about as often as its share says
  // and the seed decides which tail issuers come, and in what order.
  std::vector<GpssnQuery> Take(int n) {
    std::vector<GpssnQuery> queries(static_cast<size_t>(n));
    if (zipf_cdf_.empty()) {
      for (GpssnQuery& q : queries) q.issuer = Draw(&rng_);
      return queries;
    }
    for (int j = 0; j < n; ++j) {
      queries[j].issuer = AtQuantile((j + rng_.UniformDouble()) / n);
    }
    rng_.Shuffle(&queries);
    return queries;
  }

 private:
  UserId AtQuantile(double u) const {
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, u);
    return rank_to_user_[it - zipf_cdf_.begin()];
  }

  int num_users_;
  Rng rng_;
  std::vector<UserId> rank_to_user_;
  std::vector<double> zipf_cdf_;  // Empty for uniform issuers.
};

// ---------------------------------------------------------------------------
// Measurement helpers.

int NumCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Time the hypervisor ran other guests on this machine's CPUs (the
// "steal" column of /proc/stat), in seconds: a run with much of it was
// measured on a contended host.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  stat >> cpu;
  for (uint64_t& f : field) stat >> f;
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

// Nearest-rank percentile, the estimator BatchStats uses.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// CPU time of the whole process (every thread), in seconds. It excludes
// time the hypervisor stole, so it reads the same in quiet and contended
// stretches of a shared host, while wall time does not.
double ProcessCpuSeconds() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Errors of one run: failed queries, infeasible answers and cross-path
// mismatches, over every query attempted on every path.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t divergent = 0;  // Truncated queries whose answers differ.

  void Fail(const char* path, const GpssnQuery& q, const GpssnAnswer& answer,
            const std::string& what) {
    if (++errors <= 20) {
      std::fprintf(stderr, "CHECK FAILED [%s] %s: %s\n", path,
                   Describe(q, answer).c_str(), what.c_str());
    }
  }
};

// One serial closed-loop pass: each query is issued after the previous one
// returned. latency_seconds is the wall time of the Query call alone;
// cpu_ms, when given, receives the process CPU time of each call.
std::vector<BatchQueryResult> SerialPass(GpssnDatabase* db,
                                         std::span<const GpssnQuery> queries,
                                         std::vector<double>* cpu_ms = nullptr,
                                         Tracer* tracer = nullptr) {
  std::vector<BatchQueryResult> results(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    BatchQueryResult& r = results[i];
    r.query = queries[i];
    const double cpu_start = ProcessCpuSeconds();
    WallTimer timer;
    Result<GpssnAnswer> answer = [&] {
      if (tracer == nullptr) return db->Query(queries[i], &r.stats);
      ScopedSpan span(tracer, "serial.query", static_cast<int64_t>(i));
      return db->Query(queries[i], &r.stats);
    }();
    r.latency_seconds = timer.ElapsedSeconds();
    if (cpu_ms != nullptr) {
      cpu_ms->push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
    }
    r.status = answer.status();
    if (answer.ok()) r.answer = std::move(*answer);
  }
  return results;
}

// Checks a reference pass: every query succeeded and every answer found is
// feasible.
void CheckReference(const char* path,
                    const std::vector<BatchQueryResult>& results,
                    AnswerChecker* checker, Tally* tally) {
  for (const BatchQueryResult& r : results) {
    ++tally->attempted;
    if (!r.status.ok()) {
      tally->Fail(path, r.query, r.answer, r.status.ToString());
      continue;
    }
    const std::string problem = checker->Check(r.query, r.answer);
    if (!problem.empty()) tally->Fail(path, r.query, r.answer, problem);
  }
}

// Checks another path against the reference pass: byte-identical answers
// where the reference was not truncated; where it was, only feasibility,
// and a difference is counted as divergent.
void CompareToReference(const char* path,
                        const std::vector<BatchQueryResult>& results,
                        const std::vector<BatchQueryResult>& reference,
                        AnswerChecker* checker, Tally* tally) {
  GPSSN_CHECK(results.size() == reference.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const BatchQueryResult& r = results[i];
    ++tally->attempted;
    if (!r.status.ok()) {
      tally->Fail(path, r.query, r.answer, r.status.ToString());
      continue;
    }
    if (!reference[i].status.ok() ||
        SameAnswer(r.answer, reference[i].answer)) {
      continue;
    }
    if (!reference[i].stats.truncated) {
      tally->Fail(path, r.query, r.answer,
                  "differs from serial answer " +
                      Describe(reference[i].query, reference[i].answer));
      continue;
    }
    ++tally->divergent;
    const std::string problem = checker->Check(r.query, r.answer);
    if (!problem.empty()) tally->Fail(path, r.query, r.answer, problem);
  }
}

// One maintenance burst: kBurstPois facilities open on random edges and
// kBurstUsers issuer-distributed (hot, under Zipf) users' interests drift
// kDrift of the way towards a random user's. The drift is small so that
// later queries of a hot issuer cost about what they did: a large one lets
// the seed decide how expensive the hottest issuers become. Inputs are
// drawn before the clock starts. Returns the burst's process CPU time in
// ms.
double RunBurst(GpssnDatabase* db, const IssuerStream& stream, Rng* rng,
                Tally* tally) {
  const SpatialSocialNetwork& ssn = db->ssn();
  std::vector<std::pair<EdgePosition, std::vector<KeywordId>>> pois;
  for (int k = 0; k < kBurstPois; ++k) {
    EdgePosition position;
    position.edge =
        static_cast<EdgeId>(rng->NextBounded(ssn.road().num_edges()));
    position.t = rng->UniformDouble();
    std::vector<KeywordId> keywords;
    const int count = static_cast<int>(rng->UniformInt(1, 2));
    for (int j = 0; j < count; ++j) {
      keywords.push_back(
          static_cast<KeywordId>(rng->NextBounded(ssn.num_topics())));
    }
    std::sort(keywords.begin(), keywords.end());
    keywords.erase(std::unique(keywords.begin(), keywords.end()),
                   keywords.end());
    pois.emplace_back(position, std::move(keywords));
  }
  std::vector<std::pair<UserId, std::vector<double>>> drifts;
  for (int k = 0; k < kBurstUsers; ++k) {
    const UserId u = stream.Draw(rng);
    const UserId v = static_cast<UserId>(rng->NextBounded(ssn.num_users()));
    const std::span<const double> a = ssn.social().Interests(u);
    const std::span<const double> b = ssn.social().Interests(v);
    std::vector<double> mixed(a.size());
    for (size_t f = 0; f < a.size(); ++f) {
      mixed[f] = (1.0 - kDrift) * a[f] + kDrift * b[f];
    }
    drifts.emplace_back(u, std::move(mixed));
  }

  const double cpu_start = ProcessCpuSeconds();
  bool ok = true;
  for (auto& [position, keywords] : pois) {
    ok &= db->AddPoi(position, std::move(keywords)).ok();
  }
  for (const auto& [user, interests] : drifts) {
    ok &= db->UpdateUserInterests(user, interests).ok();
  }
  const double ms = (ProcessCpuSeconds() - cpu_start) * 1e3;
  ++tally->attempted;
  if (!ok) {
    ++tally->errors;
    std::fprintf(stderr, "CHECK FAILED [write] maintenance call failed\n");
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunResult {
  Tally tally;
  std::vector<Metric> metrics;
  std::string context;  // Extra "key": value pairs for the context line.
};

void AddContext(RunResult* out, const char* key, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"%s\": %.10g", key, value);
  out->context += buf;
}

// Records the network's sizes as built, before any write.
void AddNetworkContext(RunResult* out, const SpatialSocialNetwork& ssn) {
  AddContext(out, "road_vertices", ssn.road().num_vertices());
  AddContext(out, "road_edges", ssn.road().num_edges());
  AddContext(out, "pois", ssn.num_pois());
  AddContext(out, "users", ssn.num_users());
  AddContext(out, "social_avg_degree", ssn.social().AverageDegree());
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics only.

int NumCycles(const Spec& spec, double seconds) {
  return std::max(spec.min_cycles,
                  static_cast<int>(std::lround(spec.cycles * seconds / 20.0)));
}

// Every metric samples the whole run: each cycle sends one fresh chunk of
// queries through the serial loop, a closed batch and the cluster, then
// runs kBurstsPerCycle write bursts. The cycle count follows --seconds,
// not the clock, so one seed always gives the same queries and writes
// (unless the kMaxSlowdown guard stops the run early).
//
// Times are CPU time of the process, not wall time. On a shared VM the
// hypervisor steals CPU in stretches that last longer than a run: wall
// throughput fell to under a third in such stretches, while the CPU-time
// figures moved by 3-20% (METRICS.md). The context line also reports the
// wall figures.
void RunEndToEnd(const Spec& spec, uint64_t seed, double seconds, int workers,
                 RunResult* out) {
  Tally& tally = out->tally;

  // Set-up: database construction plus cluster creation, kSetupReps times
  // from a freshly generated network (generation is not timed). Each rep
  // first drops the previous database, so only one ever exists; the last
  // one serves the queries and takes the write bursts.
  std::unique_ptr<GpssnDatabase> db;
  std::vector<double> setup_s, setup_wall_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    SpatialSocialNetwork ssn = MakeNetwork(spec);
    const double cpu_start = ProcessCpuSeconds();
    WallTimer timer;
    db = std::make_unique<GpssnDatabase>(std::move(ssn), BuildOptions(spec));
    auto cluster = MakeCluster(*db, spec, workers);
    setup_wall_s.push_back(timer.ElapsedSeconds());
    setup_s.push_back(ProcessCpuSeconds() - cpu_start);
  }
  AddNetworkContext(out, db->ssn());

  IssuerStream stream(spec, db->ssn().num_users(), seed);
  Rng write_rng(seed ^ 0x5eed5eed5eedULL);
  BatchExecutorOptions exec_options;
  exec_options.num_workers = workers;
  exec_options.query.distance_backend = db->distance_backend();
  exec_options.query.distance_cache = db->distance_cache();

  {
    const std::vector<GpssnQuery> warmup = stream.Take(kWarmupQueries);
    AnswerChecker checker(db->ssn());
    CheckReference("warm-up", SerialPass(db.get(), warmup), &checker, &tally);
  }

  std::vector<double> serial_ms, serial_wall_ms, write_ms;
  // Throughput is taken over the whole run: N times all queries of a path
  // over the CPU seconds they took (and, for the context line, over the
  // sum of their submit-to-Wait wall times).
  double batch_queries = 0.0, batch_cpu_s = 0.0, batch_wall_s = 0.0;
  double cluster_queries = 0.0, cluster_cpu_s = 0.0, cluster_wall_s = 0.0;
  // The per-query truncation count (MergeFrom ORs the flag) and the
  // merged counters of the serial passes.
  uint64_t truncated = 0;
  QueryStats serial_total;
  const int planned = NumCycles(spec, seconds);
  int cycles = 0;
  const WallTimer run_timer;
  while (cycles < planned &&
         (cycles < spec.min_cycles ||
          run_timer.ElapsedSeconds() < kMaxSlowdown * seconds)) {
    ++cycles;
    const std::vector<GpssnQuery> chunk = stream.Take(spec.chunk_size);
    const std::vector<BatchQueryResult> reference =
        SerialPass(db.get(), chunk, &serial_ms);
    for (const BatchQueryResult& r : reference) {
      serial_wall_ms.push_back(r.latency_seconds * 1e3);
      truncated += r.stats.truncated;
      serial_total.MergeFrom(r.stats);
    }
    // A new checker (and executor, and cluster) each cycle: the write
    // bursts replace the processors' POI locators.
    AnswerChecker checker(db->ssn());
    CheckReference("serial", reference, &checker, &tally);
    {
      GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(),
                                  exec_options);
      BatchStats stats;
      const double cpu_start = ProcessCpuSeconds();
      const std::vector<BatchQueryResult> results =
          executor.ExecuteAll(chunk, &stats);
      batch_cpu_s += ProcessCpuSeconds() - cpu_start;
      batch_queries += static_cast<double>(stats.queries);
      batch_wall_s += stats.wall_seconds;
      CompareToReference("batch", results, reference, &checker, &tally);
    }
    {
      // Created after the set-up timing and destroyed before any write, so
      // no cluster stays attached across maintenance.
      auto cluster = MakeCluster(*db, spec, workers);
      BatchStats stats;
      const double cpu_start = ProcessCpuSeconds();
      const std::vector<BatchQueryResult> results =
          cluster->QueryBatch(chunk, &stats);
      cluster_cpu_s += ProcessCpuSeconds() - cpu_start;
      cluster_queries += static_cast<double>(stats.queries);
      cluster_wall_s += stats.wall_seconds;
      CompareToReference("cluster", results, reference, &checker, &tally);
    }
    for (int b = 0; b < kBurstsPerCycle; ++b) {
      write_ms.push_back(RunBurst(db.get(), stream, &write_rng, &tally));
    }
  }

  if (const DistanceCache* cache = db->distance_cache()) {
    const DistanceCache::Stats cs = cache->GetStats();
    AddContext(out, "cache_capacity_entries",
               static_cast<double>(cache->max_entries()));
    AddContext(out, "cache_insertions", static_cast<double>(cs.insertions));
    AddContext(out, "cache_evictions", static_cast<double>(cs.evictions));
    AddContext(out, "cache_row_hit_ratio",
               Ratio(static_cast<double>(serial_total.dist_cache_row_hits),
                     static_cast<double>(serial_total.dist_cache_row_hits +
                                         serial_total.dist_cache_row_misses)));
  }
  AddContext(out, "setup_reps", kSetupReps);
  AddContext(out, "cycles", cycles);
  AddContext(out, "cycles_planned", planned);
  AddContext(out, "serial_samples", static_cast<double>(serial_ms.size()));
  AddContext(out, "write_bursts", static_cast<double>(write_ms.size()));
  AddContext(out, "truncated_frac",
             Ratio(static_cast<double>(truncated),
                   static_cast<double>(serial_ms.size())));
  AddContext(out, "error_frac", Ratio(static_cast<double>(tally.errors),
                                      static_cast<double>(tally.attempted)));
  AddContext(out, "wall_setup_s", Median(setup_wall_s));
  AddContext(out, "wall_serial_p50_ms", Percentile(serial_wall_ms, 0.50));
  AddContext(out, "wall_serial_p95_ms", Percentile(serial_wall_ms, 0.95));
  AddContext(out, "wall_batch_qps", Ratio(batch_queries, batch_wall_s));
  AddContext(out, "wall_cluster_qps", Ratio(cluster_queries, cluster_wall_s));

  out->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"serial_p50_ms", Percentile(serial_ms, 0.50), "ms"},
      {"serial_p95_ms", Percentile(serial_ms, 0.95), "ms"},
      {"batch_qps", Ratio(workers * batch_queries, batch_cpu_s), "queries/s"},
      {"cluster_qps", Ratio(workers * cluster_queries, cluster_cpu_s),
       "queries/s"},
      {"write_p50_ms", Median(write_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

void RunTraced(const Spec& spec, uint64_t seed, double seconds, int workers,
               const std::string& trace_file, RunResult* out) {
  Tracer tracer;
  Tally& tally = out->tally;
  const GpssnBuildOptions build = BuildOptions(spec);
  auto timed = [&tracer](const char* name, auto&& fn) {
    ScopedSpan span(&tracer, name, -1);
    WallTimer timer;
    fn();
    return timer.ElapsedSeconds();
  };

  // Set-up decomposition: each component once, through its own public
  // constructor or factory, with the options the database passes it.
  double pivots_s = 0.0, poi_index_s = 0.0, social_index_s = 0.0, ch_s = 0.0;
  {
    const SpatialSocialNetwork ssn = MakeNetwork(spec);
    PivotSelectOptions select = build.pivot_select;
    select.seed = build.seed;
    RoadPivotTable road_pivots;
    SocialPivotTable social_pivots;
    pivots_s = timed("setup.pivots", [&] {
      road_pivots = RoadPivotTable(
          ssn.road(),
          SelectRoadPivots(ssn.road(), build.num_road_pivots, select));
      social_pivots = SocialPivotTable(
          ssn.social(),
          SelectSocialPivots(ssn.social(), build.num_social_pivots, select));
    });
    PoiIndexOptions poi_options = build.poi_index;
    poi_options.seed = build.seed;
    poi_index_s = timed("setup.poi_index", [&] {
      const PoiIndex index(&ssn, &road_pivots, poi_options);
    });
    SocialIndexOptions social_options = build.social_index;
    social_options.seed = build.seed;
    social_index_s = timed("setup.social_index", [&] {
      const SocialIndex index(&ssn, &social_pivots, &road_pivots,
                              social_options);
    });
    if (spec.backend == DistanceBackendKind::kContractionHierarchy) {
      ch_s = timed("setup.ch", [&] {
        const auto backend = MakeChBackend(&ssn.road(), &ssn.pois(), build.ch);
      });
    }
  }
  std::unique_ptr<GpssnDatabase> db;
  SpatialSocialNetwork network = MakeNetwork(spec);
  const double db_s = timed("setup.database", [&] {
    db = std::make_unique<GpssnDatabase>(std::move(network), build);
  });
  const double partition_s = timed("setup.partition", [&] {
    GPSSN_CHECK(serving::MakeServingPartition(db->social_index(),
                                              db->poi_index(), workers)
                    .ok());
  });
  std::unique_ptr<serving::ServingCluster> cluster;
  const double create_s = timed(
      "setup.cluster", [&] { cluster = MakeCluster(*db, spec, workers); });

  const SpatialSocialNetwork& ssn = db->ssn();
  AddNetworkContext(out, ssn);
  IssuerStream stream(spec, ssn.num_users(), seed);
  const std::vector<GpssnQuery> list = stream.Take(spec.chunk_size * 16);

  // Reference pass, untraced: its QueryStats (merged with MergeFrom) give
  // the program's own counters and phase timers. It also sizes the rest of
  // the run: queries are taken from the list until 1/8 of the budget.
  std::vector<BatchQueryResult> reference;
  const WallTimer sizing;
  for (size_t i = 0; i < list.size(); ++i) {
    reference.push_back(SerialPass(db.get(), std::span(list).subspan(i, 1))[0]);
    if (i + 1 >= 16 && sizing.ElapsedSeconds() >= seconds / 8) break;
  }
  const size_t n = reference.size();
  const std::span<const GpssnQuery> queries = std::span(list).first(n);
  const double nq = static_cast<double>(n);
  AnswerChecker checker(ssn);
  CheckReference("serial", reference, &checker, &tally);
  QueryStats total;
  uint64_t truncated = 0;
  for (const BatchQueryResult& r : reference) {
    total.MergeFrom(r.stats);
    truncated += r.stats.truncated;
  }

  // Untraced vs traced serial wall time over the same queries.
  WallTimer timer;
  CompareToReference("serial-repeat", SerialPass(db.get(), queries), reference,
                     &checker, &tally);
  const double untraced_s = timer.ElapsedSeconds();
  std::vector<BatchQueryResult> traced_pass;
  timer.Restart();
  traced_pass = SerialPass(db.get(), queries, nullptr, &tracer);
  const double traced_s = timer.ElapsedSeconds();
  CompareToReference("serial-traced", traced_pass, reference, &checker, &tally);
  double serial_mean_ms = 0.0;
  for (const BatchQueryResult& r : traced_pass) {
    serial_mean_ms += r.latency_seconds;
  }
  serial_mean_ms = serial_mean_ms * 1e3 / nq;

  // The coordinator's 1-shard pipeline on a fresh processor, stage by stage.
  GpssnProcessor processor(&db->poi_index(), &db->social_index());
  QueryOptions options;
  options.distance_backend = db->distance_backend();
  options.distance_cache = db->distance_cache();
  QueryOptions no_pool = options;
  no_pool.buffer_pool_pages = 0;
  ShardScope scope;
  scope.social_roots = {db->social_index().root()};
  scope.road_roots = {db->poi_index().tree().root()};
  std::vector<std::vector<PoiId>> centers(n);
  std::vector<std::vector<UserId>> refined_users(n);
  std::vector<BatchQueryResult> staged(n);
  for (size_t i = 0; i < n; ++i) {
    const GpssnQuery& q = queries[i];
    const auto qid = static_cast<int64_t>(i);
    BatchQueryResult& r = staged[i];
    r.query = q;
    {
      ScopedSpan query_span(&tracer, "core.staged", qid);
      Result<ShardCandidates> candidates = [&] {
        ScopedSpan span(&tracer, "core.gather", qid);
        return processor.GatherCandidates(q, options, scope);
      }();
      if (!candidates.ok()) {
        r.status = candidates.status();
        continue;
      }
      std::vector<UserId> users = candidates->users;
      if (std::find(users.begin(), users.end(), q.issuer) == users.end()) {
        users.push_back(q.issuer);
      }
      {
        ScopedSpan span(&tracer, "core.corollary2", qid);
        if (options.pruning.interest_score) {
          ApplyCorollary2(ssn.social(), q, &users, nullptr);
        }
      }
      std::vector<std::vector<UserId>> groups;
      {
        ScopedSpan span(&tracer, "core.enumerate", qid);
        EnumerateGroups(ssn.social(), q, users, options.max_groups, &groups);
      }
      if (!candidates->pois.empty() && !groups.empty()) {
        ScopedSpan span(&tracer, "core.refine", qid);
        Result<ShardRefineResult> refined = processor.RefineCandidates(
            q, options, candidates->pois, groups, kInfDistance);
        r.status = refined.status();
        if (refined.ok()) r.answer = std::move(refined->answer);
      }
      centers[i] = std::move(candidates->pois);
      refined_users[i] = std::move(users);
    }
    ScopedSpan span(&tracer, "common.gather_no_pool", qid);
    GPSSN_CHECK(processor.GatherCandidates(q, no_pool, scope).ok());
  }
  CompareToReference("staged", staged, reference, &checker, &tally);

  // Roadnet replay of each query's candidate sets through an engine of the
  // workload's backend.
  std::unique_ptr<DistanceBackend> dijkstra;
  const DistanceBackend* backend = db->distance_backend();
  if (backend == nullptr) {
    dijkstra = MakeDijkstraBackend(&ssn.road(), &ssn.pois());
    backend = dijkstra.get();
  }
  const std::unique_ptr<DistanceEngine> engine = backend->CreateEngine();
  for (size_t i = 0; i < n; ++i) {
    const auto qid = static_cast<int64_t>(i);
    std::vector<PoiId> members;
    for (PoiId c : centers[i]) {
      ScopedSpan span(&tracer, "roadnet.ball", qid);
      for (const auto& [poi, dist] :
           engine->BallWithDistances(ssn.poi(c).position, queries[i].radius)) {
        members.push_back(poi);
      }
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    std::vector<EdgePosition> targets;
    for (PoiId p : members) targets.push_back(ssn.poi(p).position);
    std::vector<double> dists(targets.size());
    const double bound =
        reference[i].answer.found ? reference[i].answer.max_dist : kInfDistance;
    ScopedSpan span(&tracer, "roadnet.s2t", qid);
    engine->SetTargets(targets);
    for (UserId u : refined_users[i]) {
      engine->SourceToTargets(ssn.user_home(u), bound, dists.data());
    }
  }

  // The same queries as one closed batch, then through the cluster.
  BatchExecutorOptions exec_options;
  exec_options.num_workers = workers;
  exec_options.query = options;
  BatchStats batch_stats;
  std::vector<BatchQueryResult> batch;
  {
    GpssnBatchExecutor executor(&db->poi_index(), &db->social_index(),
                                exec_options);
    ScopedSpan span(&tracer, "executor.batch", -1);
    batch = executor.ExecuteAll(queries, &batch_stats);
  }
  CompareToReference("batch", batch, reference, &checker, &tally);
  double service_ms = 0.0, latency_ms = 0.0;
  for (const BatchQueryResult& r : batch) {
    service_ms += r.stats.cpu_seconds;
    latency_ms += r.latency_seconds;
  }
  service_ms = service_ms * 1e3 / nq;
  latency_ms = latency_ms * 1e3 / nq;

  BatchStats cluster_stats;
  std::vector<BatchQueryResult> served;
  {
    ScopedSpan span(&tracer, "serving.batch", -1);
    served = cluster->QueryBatch(queries, &cluster_stats);
  }
  const uint64_t divergent_before = tally.divergent;
  CompareToReference("cluster", served, reference, &checker, &tally);
  const QueryStats& st = cluster_stats.totals;

  if (!trace_file.empty() && !tracer.WriteJson(trace_file)) {
    std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
  }
  AddContext(out, "traced_queries", nq);

  const double gather_ms = tracer.TotalMs("core.gather") / nq;
  const uint64_t rows = total.dist_cache_row_hits + total.dist_cache_row_misses;
  const double setup_parts =
      pivots_s + poi_index_s + social_index_s + ch_s + partition_s;
  out->metrics = {
      {"core.gather_ms", gather_ms, "ms"},
      {"core.corollary2_ms", tracer.TotalMs("core.corollary2") / nq, "ms"},
      {"core.enumerate_ms", tracer.TotalMs("core.enumerate") / nq, "ms"},
      {"core.refine_ms", tracer.TotalMs("core.refine") / nq, "ms"},
      {"core.staged_self_ms", tracer.SelfMs("core.staged") / nq, "ms"},
      {"core.groups_per_query", total.groups_enumerated / nq, "count"},
      {"core.pairs_per_query", total.pairs_examined / nq, "count"},
      {"core.exact_evals_per_query", total.exact_distance_evals / nq, "count"},
      {"core.pairs_per_group",
       Ratio(static_cast<double>(total.pairs_examined),
             static_cast<double>(total.groups_enumerated)),
       "ratio"},
      {"core.stats.descent_ms", total.descent_seconds * 1e3 / nq, "ms"},
      {"core.stats.ball_ms", total.ball_seconds * 1e3 / nq, "ms"},
      {"core.stats.refine_ms", total.refine_seconds * 1e3 / nq, "ms"},
      {"core.stats.exact_dist_ms", total.exact_dist_seconds * 1e3 / nq, "ms"},
      {"index.page_misses_per_query", total.io.page_misses / nq, "count"},
      {"index.logical_accesses_per_query", total.io.logical_accesses / nq,
       "count"},
      {"index.user_prune_ratio",
       1.0 - Ratio(static_cast<double>(total.users_candidates),
                   nq * ssn.num_users()),
       "ratio"},
      {"index.poi_prune_ratio",
       1.0 - Ratio(static_cast<double>(total.pois_candidates),
                   nq * ssn.num_pois()),
       "ratio"},
      {"index.pivots_s", pivots_s, "s"},
      {"index.poi_index_s", poi_index_s, "s"},
      {"index.social_index_s", social_index_s, "s"},
      {"common.buffer_pool_ms",
       gather_ms - tracer.TotalMs("common.gather_no_pool") / nq, "ms"},
      {"common.sched_tasks_stolen",
       static_cast<double>(batch_stats.scheduler_tasks_stolen), "count"},
      {"roadnet.ball_ms", tracer.TotalMs("roadnet.ball") / nq, "ms"},
      {"roadnet.s2t_ms", tracer.TotalMs("roadnet.s2t") / nq, "ms"},
      {"roadnet.ball_calls",
       static_cast<double>(tracer.Count("roadnet.ball")) / nq, "count"},
      {"roadnet.range_engine_share",
       Ratio(static_cast<double>(total.ball_range_engine_queries),
             static_cast<double>(total.ball_queries)),
       "ratio"},
      {"roadnet.cache_hit_ratio",
       Ratio(static_cast<double>(total.dist_cache_row_hits),
             static_cast<double>(rows)),
       "ratio"},
      {"roadnet.ch_build_s", ch_s, "s"},
      {"executor.queue_wait_ms", latency_ms - service_ms, "ms"},
      {"executor.service_ms", service_ms, "ms"},
      {"executor.contention", Ratio(service_ms, serial_mean_ms), "ratio"},
      {"serving.gather_ms", st.serve_gather_seconds * 1e3 / nq, "ms"},
      {"serving.plan_ms", st.serve_plan_seconds * 1e3 / nq, "ms"},
      {"serving.refine_ms", st.serve_refine_seconds * 1e3 / nq, "ms"},
      {"serving.skip_ratio",
       Ratio(static_cast<double>(st.skipped_shards),
             static_cast<double>(st.skipped_shards + st.refined_shards)),
       "ratio"},
      {"serving.msgs_per_query", st.shard_msgs / nq, "count"},
      {"serving.partition_s", partition_s, "s"},
      {"serving.create_s", create_s, "s"},
      {"serving.divergent_answers",
       static_cast<double>(tally.divergent - divergent_before), "count"},
      {"setup.residual_s", db_s + create_s - setup_parts, "s"},
      {"trace.overhead_frac", Ratio(traced_s, untraced_s) - 1.0, "fraction"},
      {"truncated_frac", static_cast<double>(truncated) / nq, "fraction"},
      {"error_frac",
       Ratio(static_cast<double>(tally.errors),
             static_cast<double>(tally.attempted)),
       "fraction"},
  };
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload, trace_file, git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: %s --workload <uni-ch|gowcol-dense|zipf-maint> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }

  const int nproc = NumCpus();
  const int workers = std::min(nproc, 4);
  RunResult result;
  const double steal_start = StealSeconds();
  if (trace == 1) {
    RunTraced(*spec, seed, seconds, workers, trace_file, &result);
  } else {
    RunEndToEnd(*spec, seed, seconds, workers, &result);
  }
  AddContext(&result, "cpu_steal_s", StealSeconds() - steal_start);

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"workers\": %d, \"build_type\": \"%s\", "
      "\"optimized\": %s, \"git_sha\": \"%s\", \"dataset\": \"%s\", "
      "\"scale\": %g, \"backend\": \"%s\", \"cache_entries\": %zu, "
      "\"attempted\": %llu, "
      "\"errors\": %llu%s}}\n",
      spec->name, static_cast<unsigned long long>(seed), seconds, trace, nproc,
      workers, GPSSN_PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
      git_sha.c_str(), spec->dataset, spec->scale,
      spec->backend == DistanceBackendKind::kDijkstra ? "dijkstra" : "ch",
      spec->cache_entries,
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(result.tally.errors),
      result.context.c_str());

  const bool correct = result.tally.errors == 0 && result.tally.attempted > 0;
  std::string metrics;
  char buf[256];
  for (const Metric& m : result.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value, m.unit);
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(result.tally.errors), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
