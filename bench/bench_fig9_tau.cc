// Reproduces Figure 9: GP-SSN performance vs the user group size τ on the
// synthetic datasets. Paper: CPU and I/O grow smoothly with τ
// (0.01-0.022 s, 170-235 I/Os).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"

namespace gpssn::bench {
namespace {

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Fig. 9: effect of the user group size tau "
              "(scale %.2f, %d queries/point) ===\n",
              config.scale, config.queries);
  TablePrinter table(
      {"dataset", "tau", "CPU (s)", "I/Os", "found", "capped"});
  for (const char* name : {"UNI", "ZIPF"}) {
    auto db = BuildDatabase(MakeDataset(name, config.scale));
    for (int tau : {2, 3, 5, 7, 10}) {
      GpssnQuery q = DefaultQuery();
      q.tau = tau;
      const Aggregate agg =
          RunWorkload(db.get(), q, config.queries, QueryOptions{}, 10 + tau);
      table.AddRow({name, std::to_string(tau),
                    TablePrinter::Num(agg.avg_cpu_seconds, 3),
                    TablePrinter::Num(agg.avg_page_ios, 4),
                    std::to_string(agg.answers_found) + "/" +
                        std::to_string(agg.queries),
                    std::to_string(agg.truncated)});
    }
  }
  table.Print();
  std::printf("(paper: smooth growth; 0.01-0.022 s, 170-235 I/Os; capped = "
              "queries stopped by a refinement cap, whose answers may miss "
              "the optimum)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
