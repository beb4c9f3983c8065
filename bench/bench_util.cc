#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gpssn::bench {

BenchConfig GetConfig() {
  BenchConfig config;
  if (const char* scale = std::getenv("GPSSN_BENCH_SCALE")) {
    if (std::strcmp(scale, "paper") == 0) {
      config.scale = 1.0;
    } else {
      const double v = std::atof(scale);
      if (v > 0.0 && v <= 1.0) config.scale = v;
    }
  }
  if (const char* queries = std::getenv("GPSSN_BENCH_QUERIES")) {
    const int v = std::atoi(queries);
    if (v > 0) config.queries = v;
  }
  return config;
}

GpssnQuery DefaultQuery() {
  GpssnQuery q;
  q.tau = 5;
  q.gamma = 0.3;
  q.theta = 0.3;
  q.radius = 2.0;
  return q;
}

SpatialSocialNetwork MakeDataset(const std::string& name, double scale,
                                 const DatasetOverrides& overrides) {
  auto scaled = [scale](int paper_value, int floor_value) {
    return std::max(floor_value, static_cast<int>(paper_value * scale));
  };
  if (name == "BriCal" || name == "GowCol") {
    RealLikeSsnOptions options =
        name == "BriCal" ? BriCalOptions(1.0, 7) : GowColOptions(1.0, 8);
    options.num_users = scaled(options.num_users, 256);
    options.num_road_vertices = scaled(options.num_road_vertices, 256);
    options.num_pois = scaled(options.num_pois, 128);
    if (overrides.num_pois > 0) options.num_pois = overrides.num_pois;
    if (overrides.num_road_vertices > 0) {
      options.num_road_vertices = overrides.num_road_vertices;
    }
    if (overrides.num_users > 0) options.num_users = overrides.num_users;
    return MakeRealLike(options);
  }
  SyntheticSsnOptions options;
  options.distribution =
      name == "ZIPF" ? Distribution::kZipf : Distribution::kUniform;
  options.seed = name == "ZIPF" ? 12 : 11;
  options.num_road_vertices = scaled(20000, 256);
  options.num_pois = scaled(10000, 128);
  options.num_users = scaled(30000, 256);
  if (overrides.num_pois > 0) options.num_pois = overrides.num_pois;
  if (overrides.num_road_vertices > 0) {
    options.num_road_vertices = overrides.num_road_vertices;
  }
  if (overrides.num_users > 0) options.num_users = overrides.num_users;
  return MakeSynthetic(options);
}

std::unique_ptr<GpssnDatabase> BuildDatabase(SpatialSocialNetwork ssn,
                                             int num_pivots,
                                             bool optimize_pivots) {
  GpssnBuildOptions build;
  build.num_road_pivots = num_pivots;
  build.num_social_pivots = num_pivots;
  build.optimize_pivots = optimize_pivots;
  return std::make_unique<GpssnDatabase>(std::move(ssn), build);
}

Aggregate RunWorkload(GpssnDatabase* db, const GpssnQuery& base, int queries,
                      const QueryOptions& options, uint64_t seed) {
  Aggregate agg;
  Rng rng(seed);
  double cpu = 0.0, ios = 0.0;
  for (int i = 0; i < queries; ++i) {
    GpssnQuery q = base;
    q.issuer = static_cast<UserId>(rng.NextBounded(db->ssn().num_users()));
    QueryStats stats;
    auto answer = db->Query(q, options, &stats);
    if (!answer.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answer.status().ToString().c_str());
      continue;
    }
    cpu += stats.cpu_seconds;
    ios += static_cast<double>(stats.PageAccesses());
    if (answer->found) ++agg.answers_found;
    if (stats.truncated) ++agg.truncated;
    agg.total.MergeFrom(stats);
    ++agg.queries;
  }
  if (agg.queries > 0) {
    agg.avg_cpu_seconds = cpu / agg.queries;
    agg.avg_page_ios = ios / agg.queries;
  }
  return agg;
}

std::string PhaseBreakdown(const Aggregate& agg) {
  const double n = std::max(1, agg.queries);
  const uint64_t rows =
      agg.total.dist_cache_row_hits + agg.total.dist_cache_row_misses;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "phases(ms/query) descent=%.3f ball=%.3f refine=%.3f "
                "exact-dist=%.3f; dist-cache row hit-rate=%.1f%% (%llu rows)",
                agg.total.descent_seconds * 1e3 / n,
                agg.total.ball_seconds * 1e3 / n,
                agg.total.refine_seconds * 1e3 / n,
                agg.total.exact_dist_seconds * 1e3 / n,
                rows > 0 ? 100.0 * static_cast<double>(
                                       agg.total.dist_cache_row_hits) /
                               static_cast<double>(rows)
                         : 0.0,
                static_cast<unsigned long long>(rows));
  std::string line = buf;
  // Serving counters are all zero on the single-node path; only append the
  // sharded-serving row when the workload actually went through a cluster.
  if (agg.total.shard_msgs > 0) {
    const uint64_t planned =
        agg.total.refined_shards + agg.total.skipped_shards;
    std::snprintf(
        buf, sizeof(buf),
        "\nserving(ms/query) gather=%.3f plan=%.3f refine=%.3f; "
        "msgs/query=%.1f refine-skip-rate=%.1f%% (%llu/%llu shards)",
        agg.total.serve_gather_seconds * 1e3 / n,
        agg.total.serve_plan_seconds * 1e3 / n,
        agg.total.serve_refine_seconds * 1e3 / n,
        static_cast<double>(agg.total.shard_msgs) / n,
        planned > 0 ? 100.0 * static_cast<double>(agg.total.skipped_shards) /
                          static_cast<double>(planned)
                    : 0.0,
        static_cast<unsigned long long>(agg.total.skipped_shards),
        static_cast<unsigned long long>(planned));
    line += buf;
  }
  return line;
}

double Aggregate::SocialIndexLevelPower(int num_users) const {
  const double total_users =
      static_cast<double>(num_users) * std::max(1, queries);
  if (total_users == 0) return 0.0;
  return static_cast<double>(total.users_pruned_at_index_level) / total_users;
}

double Aggregate::SocialObjectLevelPower() const {
  const double seen = static_cast<double>(total.users_seen);
  if (seen == 0) return 0.0;
  return (total.users_pruned_interest + total.users_pruned_distance) / seen;
}

double Aggregate::RoadIndexLevelPower(int num_pois) const {
  const double total_pois =
      static_cast<double>(num_pois) * std::max(1, queries);
  return total_pois > 0 ? static_cast<double>(total.pois_pruned_at_index_level) /
                              total_pois
                        : 0.0;
}

double Aggregate::RoadObjectLevelPower() const {
  const double seen = static_cast<double>(total.pois_seen);
  if (seen == 0) return 0.0;
  return (total.pois_pruned_match + total.pois_pruned_distance) / seen;
}

double Aggregate::UserInterestPower() const {
  const double seen = static_cast<double>(total.users_seen);
  return seen > 0 ? total.users_pruned_interest / seen : 0.0;
}

double Aggregate::UserDistancePower() const {
  const double seen = static_cast<double>(total.users_seen);
  return seen > 0 ? total.users_pruned_distance / seen : 0.0;
}

double Aggregate::PoiMatchPower(int num_pois) const {
  const double total_pois =
      static_cast<double>(num_pois) * std::max(1, queries);
  if (total_pois == 0) return 0.0;
  return (total.pois_pruned_match + total.pois_pruned_at_index_level) /
         total_pois;
}

double Aggregate::PoiDistancePower(int num_pois) const {
  const double total_pois =
      static_cast<double>(num_pois) * std::max(1, queries);
  if (total_pois == 0) return 0.0;
  return total.pois_pruned_distance / total_pois;
}

std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace gpssn::bench
