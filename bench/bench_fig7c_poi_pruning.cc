// Reproduces Figure 7(c): pruning power of the POI-pruning rules on road
// networks — road-network distance pruning (Lemma 7: candidate centers
// Refine never visits, since the issuer's exact distance already exceeds
// the incumbent) vs matching score pruning (Lemmas 1/6, object and index
// level), both as shares of all POIs. Paper bands: distance 38-58%, match
// 55-68%.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/table_printer.h"

namespace gpssn::bench {
namespace {

void Run() {
  const BenchConfig config = GetConfig();
  std::printf("=== Fig. 7(c): POI pruning power on road networks "
              "(scale %.2f, %d queries/dataset) ===\n",
              config.scale, config.queries);
  TablePrinter table({"dataset", "matching-score pruning",
                      "road-distance pruning", "candidates left"});
  for (const char* name : {"BriCal", "GowCol", "UNI", "ZIPF"}) {
    auto db = BuildDatabase(MakeDataset(name, config.scale));
    const Aggregate agg = RunWorkload(db.get(), DefaultQuery(), config.queries,
                                      QueryOptions{}, 7);
    const double avg_candidates =
        agg.queries > 0
            ? static_cast<double>(agg.total.pois_candidates) / agg.queries
            : 0;
    table.AddRow({name, Pct(agg.PoiMatchPower(db->ssn().num_pois())),
                  Pct(agg.PoiDistancePower(db->ssn().num_pois())),
                  TablePrinter::Num(avg_candidates, 4)});
  }
  table.Print();
  std::printf("(paper: match 55-68%%, distance 38-58%%)\n");
}

}  // namespace
}  // namespace gpssn::bench

int main() {
  gpssn::bench::Run();
  return 0;
}
