// Reproduces Figure 8: GP-SSN vs Baseline over the four datasets — CPU time
// and I/O cost. The Baseline is estimated exactly as the paper does
// (Section 6.3): average the per-pair cost over 100 sampled (S, R) pairs
// and multiply by the number of candidate pairs. Paper: GP-SSN
// 0.017-0.035 s and 201-303 I/Os; Baseline ~1.9e13 days.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/baseline.h"

namespace gpssn::bench {
namespace {

std::string Sci(double v) {
  char buf[48];
  if (!std::isfinite(v)) return "inf";
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Fig. 8: GP-SSN vs Baseline (scale %.2f, %d queries + 100 "
              "Baseline samples per dataset) ===\n",
              config.scale, config.queries);
  TablePrinter table({"dataset", "GP-SSN CPU (s)", "GP-SSN I/Os",
                      "Baseline CPU (days, est)", "Baseline I/Os (est)",
                      "speedup (x, est)"});
  const GpssnQuery base = DefaultQuery();
  for (const char* name : {"BriCal", "GowCol", "UNI", "ZIPF"}) {
    SpatialSocialNetwork ssn = MakeDataset(name, config.scale);
    GpssnQuery q = base;
    q.issuer = 1;
    const BaselineEstimate est = EstimateBaselineCost(ssn, q, 100, 17).value();
    auto db = BuildDatabase(std::move(ssn));
    const Aggregate agg =
        RunWorkload(db.get(), base, config.queries, QueryOptions{}, 9);
    const double speedup =
        agg.avg_cpu_seconds > 0
            ? est.estimated_total_cpu_seconds / agg.avg_cpu_seconds
            : 0;
    table.AddRow({name, TablePrinter::Num(agg.avg_cpu_seconds, 3),
                  TablePrinter::Num(agg.avg_page_ios, 4),
                  Sci(est.estimated_total_days), Sci(est.estimated_total_ios),
                  Sci(speedup)});
  }
  table.Print();
  std::printf("(paper: GP-SSN 0.017-0.035 s / 201-303 I/Os; Baseline about "
              "1.9e13 days — orders-of-magnitude gap is the headline)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
