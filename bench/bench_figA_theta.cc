// Reproduces the Appendix P experiment on the matching-score threshold θ
// (Table 3 row: 0.2, 0.3, 0.5, 0.7, 0.9). Larger θ prunes more POIs.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"

namespace gpssn::bench {
namespace {

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Appendix P: effect of the matching threshold theta "
              "(scale %.2f, %d queries/point) ===\n",
              config.scale, config.queries);
  TablePrinter table({"dataset", "theta", "CPU (s)", "I/Os",
                      "POI match pruning", "found"});
  for (const char* name : {"UNI", "ZIPF"}) {
    auto db = BuildDatabase(MakeDataset(name, config.scale));
    for (double theta : {0.2, 0.3, 0.5, 0.7, 0.9}) {
      GpssnQuery q = DefaultQuery();
      q.theta = theta;
      const Aggregate agg =
          RunWorkload(db.get(), q, config.queries, QueryOptions{}, 50);
      table.AddRow({name, TablePrinter::Num(theta, 2),
                    TablePrinter::Num(agg.avg_cpu_seconds, 3),
                    TablePrinter::Num(agg.avg_page_ios, 4),
                    Pct(agg.PoiMatchPower(db->ssn().num_pois())),
                    std::to_string(agg.answers_found) + "/" +
                        std::to_string(agg.queries)});
    }
  }
  table.Print();
  std::printf("(expected shape: match pruning grows with theta, cost "
              "shrinks)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
