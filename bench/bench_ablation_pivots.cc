// Ablation: Algorithm 1's cost-model pivot selection vs random pivots —
// lower-bound tightness, the CPU time of the selection itself, and
// end-to-end query cost.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "index/pivot_select.h"

namespace gpssn::bench {
namespace {

// CPU time of the calling thread, in milliseconds.
double ThreadCpuMillis() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return 1e3 * static_cast<double>(t.tv_sec) +
         1e-6 * static_cast<double>(t.tv_nsec);
}

// The least CPU time `select` takes over three runs, in milliseconds.
template <typename Fn>
double BestOfThreeMillis(Fn select) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const double start = ThreadCpuMillis();
    select();
    best = std::min(best, ThreadCpuMillis() - start);
  }
  return best;
}

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Ablation: Algorithm 1 pivot selection vs random pivots "
              "(UNI, scale %.2f, %d queries/row) ===\n",
              config.scale, config.queries);
  TablePrinter table({"pivot selection", "road lb tightness",
                      "social lb tightness", "road selection CPU (ms)",
                      "social selection CPU (ms)", "CPU (s)", "I/Os"});
  for (bool optimize : {true, false}) {
    SpatialSocialNetwork ssn = MakeDataset("UNI", config.scale);
    // The selection the database below runs, with its options, timed alone.
    const GpssnBuildOptions build;
    PivotSelectOptions select = build.pivot_select;
    select.seed = build.seed;
    const double road_ms = BestOfThreeMillis([&] {
      return optimize ? SelectRoadPivots(ssn.road(), 5, select)
                      : RandomRoadPivots(ssn.road(), 5, build.seed);
    });
    const double social_ms = BestOfThreeMillis([&] {
      return optimize ? SelectSocialPivots(ssn.social(), 5, select)
                      : RandomSocialPivots(ssn.social(), 5, build.seed);
    });
    auto db = BuildDatabase(std::move(ssn), 5, optimize);
    const double road_tightness = MeasureRoadPivotTightness(
        db->ssn().road(), db->road_pivots().pivots(), 64, 3);
    const double social_tightness = MeasureSocialPivotTightness(
        db->ssn().social(), db->social_pivots().pivots(), 64, 3);
    const Aggregate agg = RunWorkload(db.get(), DefaultQuery(),
                                      config.queries, QueryOptions{}, 95);
    table.AddRow({optimize ? "Algorithm 1 (cost model)" : "random",
                  TablePrinter::Num(road_tightness, 3),
                  TablePrinter::Num(social_tightness, 3),
                  TablePrinter::Num(road_ms, 3),
                  TablePrinter::Num(social_ms, 3),
                  TablePrinter::Num(agg.avg_cpu_seconds, 3),
                  TablePrinter::Num(agg.avg_page_ios, 4)});
  }
  table.Print();
  std::printf("(expected: Algorithm 1 yields tighter lower bounds)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
