// Copyright 2026 The gpssn Authors.
//
// Shared helpers for the experiment-reproduction benchmarks: dataset
// construction at a configurable scale, workload execution, and aggregate
// statistics matching what the paper's figures report.
//
// Scale: benches default to 10% of the paper's dataset sizes so the whole
// suite finishes quickly on a laptop. Set GPSSN_BENCH_SCALE=paper (or a
// numeric factor, e.g. 0.5) for larger runs; GPSSN_BENCH_QUERIES overrides
// the number of queries averaged per configuration.

#ifndef GPSSN_BENCH_BENCH_UTIL_H_
#define GPSSN_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "gpssn/gpssn.h"

namespace gpssn::bench {

/// Benchmark scale configuration (from the environment).
struct BenchConfig {
  double scale = 0.1;  // Fraction of paper-scale dataset sizes.
  int queries = 12;    // Queries averaged per configuration.
};

BenchConfig GetConfig();

/// Table 3 default query (bold values): γ=0.3, τ=5, θ=0.3, r=2.
GpssnQuery DefaultQuery();

/// Builds one of the four evaluation datasets ("BriCal", "GowCol", "UNI",
/// "ZIPF") at `scale` times the paper's sizes. Optional overrides (negative
/// = keep scaled default) support the parameter sweeps.
struct DatasetOverrides {
  int num_pois = -1;
  int num_road_vertices = -1;
  int num_users = -1;
};
SpatialSocialNetwork MakeDataset(const std::string& name, double scale,
                                 const DatasetOverrides& overrides = {});

/// Builds a database with Table 3 default pivots (l = h = 5).
std::unique_ptr<GpssnDatabase> BuildDatabase(SpatialSocialNetwork ssn,
                                             int num_pivots = 5,
                                             bool optimize_pivots = true);

/// Aggregate over a workload of queries with randomized issuers.
struct Aggregate {
  double avg_cpu_seconds = 0.0;
  double avg_page_ios = 0.0;
  int answers_found = 0;
  int queries = 0;
  // Queries that hit a refinement cap (QueryStats::truncated): `total`
  // ORs the flag, so it cannot count them.
  int truncated = 0;
  QueryStats total;  // Counter sums across the workload.

  // --- Pruning-power helpers (fractions in [0, 1]) -----------------------
  double SocialIndexLevelPower(int num_users) const;
  double SocialObjectLevelPower() const;
  double RoadIndexLevelPower(int num_pois) const;
  double RoadObjectLevelPower() const;
  double UserInterestPower() const;
  double UserDistancePower() const;
  // Shares of all POIs × queries: match = Lemmas 1 and 6 (object and
  // index level), distance = Lemma 7 (centers Refine never visits).
  double PoiMatchPower(int num_pois) const;
  double PoiDistancePower(int num_pois) const;
};

Aggregate RunWorkload(GpssnDatabase* db, const GpssnQuery& base, int queries,
                      const QueryOptions& options, uint64_t seed);

/// Per-phase time breakdown of an aggregate (averages per query): descent /
/// ball / refine / exact-dist plus distance-cache row hit rate. When the
/// workload ran through a serving cluster (total.shard_msgs > 0) a second
/// line reports gather / plan / refine coordinator time, messages per query,
/// and the cross-shard refine skip rate.
std::string PhaseBreakdown(const Aggregate& agg);

/// Formats a fraction as a percentage string.
std::string Pct(double fraction);

}  // namespace gpssn::bench

#endif  // GPSSN_BENCH_BENCH_UTIL_H_
