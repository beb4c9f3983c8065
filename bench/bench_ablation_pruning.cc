// Ablation: contribution of each pruning rule class to query cost.
// Answers are identical with any rule disabled (verified by the test
// suite); only cost changes.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"

namespace gpssn::bench {
namespace {

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Ablation: disabling pruning-rule classes "
              "(UNI, scale %.2f, %d queries/row) ===\n",
              config.scale, config.queries);
  auto db = BuildDatabase(MakeDataset("UNI", config.scale));
  TablePrinter table({"configuration", "CPU (s)", "I/Os",
                      "exact dist evals", "groups"});
  struct Row {
    const char* name;
    PruningFlags flags;
  };
  const Row rows[] = {
      {"all rules on", {true, true, true}},
      {"no interest-score pruning", {false, true, true}},
      {"no social-distance pruning", {true, false, true}},
      {"no matching-score pruning", {true, true, false}},
      {"no switchable pruning", {false, false, false}},
  };
  for (const Row& row : rows) {
    QueryOptions options;
    options.pruning = row.flags;
    const Aggregate agg =
        RunWorkload(db.get(), DefaultQuery(), config.queries, options, 90);
    table.AddRow(
        {row.name, TablePrinter::Num(agg.avg_cpu_seconds, 3),
         TablePrinter::Num(agg.avg_page_ios, 4),
         TablePrinter::Num(
             agg.queries ? static_cast<double>(agg.total.exact_distance_evals) /
                               agg.queries
                         : 0,
             4),
         TablePrinter::Num(
             agg.queries ? static_cast<double>(agg.total.groups_enumerated) /
                               agg.queries
                         : 0,
             4)});
  }
  table.Print();
  std::printf("(expected: every disabled rule class increases cost; "
              "interest-score pruning matters most)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
