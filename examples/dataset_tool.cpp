// Dataset utility: generate the evaluation datasets, save/load them in the
// gpssn-v2 text format (ssn/serialize.h: a text network ending in a 64-bit
// FNV-1a checksum line, so a truncated or corrupted file fails to load),
// and print their Table 2 statistics.
//
//   ./examples/dataset_tool gen <BriCal|GowCol|UNI|ZIPF> <scale> <path>
//   ./examples/dataset_tool stat <path>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gpssn/gpssn.h"

using namespace gpssn;

namespace {

int Usage() {
  std::printf(
      "usage:\n"
      "  dataset_tool gen <BriCal|GowCol|UNI|ZIPF> <scale> <path>\n"
      "  dataset_tool stat <path>\n");
  return 2;
}

void PrintStats(const SpatialSocialNetwork& ssn) {
  const SsnStats stats = ComputeStats(ssn);
  std::printf("|V(Gs)| = %d   deg(Gs) = %.2f\n", stats.social_vertices,
              stats.social_avg_degree);
  std::printf("|V(Gr)| = %d   deg(Gr) = %.2f\n", stats.road_vertices,
              stats.road_avg_degree);
  std::printf("POIs    = %d   topics  = %d\n", stats.num_pois,
              stats.num_topics);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "gen") {
    if (argc != 5) return Usage();
    const std::string name = argv[2];
    const double scale = std::atof(argv[3]);
    const std::string path = argv[4];
    if (scale <= 0.0 || scale > 1.0) {
      std::fprintf(stderr, "scale must be in (0, 1]\n");
      return 2;
    }
    SpatialSocialNetwork ssn;
    if (name == "BriCal") {
      ssn = MakeRealLike(BriCalOptions(scale));
    } else if (name == "GowCol") {
      ssn = MakeRealLike(GowColOptions(scale));
    } else if (name == "UNI" || name == "ZIPF") {
      SyntheticSsnOptions options;
      options.distribution =
          name == "ZIPF" ? Distribution::kZipf : Distribution::kUniform;
      options.num_road_vertices = std::max(64, static_cast<int>(20000 * scale));
      options.num_pois = std::max(32, static_cast<int>(10000 * scale));
      options.num_users = std::max(64, static_cast<int>(30000 * scale));
      ssn = MakeSynthetic(options);
    } else {
      return Usage();
    }
    const Status saved = SaveSsn(ssn, path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s:\n", path.c_str());
    PrintStats(ssn);
    return 0;
  }

  if (command == "stat") {
    if (argc != 3) return Usage();
    auto loaded = LoadSsn(argv[2]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    PrintStats(*loaded);
    return 0;
  }

  return Usage();
}
