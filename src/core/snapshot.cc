#include "core/snapshot.h"

#include <cstdint>
#include <sstream>

#include "ssn/serialize.h"

namespace gpssn {

namespace {
constexpr char kSnapshotMagic[] = "gpssn-snapshot-v5";
// Far above any useful CH witness limit, and low enough that the CH build's
// scaled settle budget cannot overflow an int.
constexpr int kMaxWitnessLimit = 1 << 20;
}  // namespace

Status SaveSnapshot(const GpssnDatabase& db, const std::string& path) {
  std::ostringstream out;
  out << kSnapshotMagic << "\n";
  GPSSN_RETURN_NOT_OK(WriteSsnBody(out, db.ssn()));

  const GpssnBuildOptions& build = db.build_options();
  out << "build " << build.num_road_pivots << " " << build.num_social_pivots
      << " " << (build.optimize_pivots ? 1 : 0) << " "
      << build.poi_index.r_min << " " << build.poi_index.r_max << " "
      << build.poi_index.rtree.max_entries << " "
      << build.social_index.leaf_cell_size << " " << build.social_index.fanout
      << " " << build.seed << " " << static_cast<int>(build.distance_backend)
      << " " << build.ch.witness_hop_limit << " "
      << build.ch.witness_settle_limit << " " << build.distance_cache_entries
      << "\n";
  out << "end\n";

  return WriteSealedFile(path, out.view());
}

Result<std::unique_ptr<GpssnDatabase>> LoadSnapshot(const std::string& path) {
  std::stringstream in;
  GPSSN_RETURN_NOT_OK(ReadSealedFile(path, kSnapshotMagic, &in));
  GPSSN_ASSIGN_OR_RETURN(SpatialSocialNetwork ssn, ReadSsnBody(in));

  std::string section;
  GpssnBuildOptions build;
  int optimize_pivots = -1;
  int backend = -1;
  // Signed, so that a negative count fails instead of wrapping around.
  int64_t cache_entries = -1;
  if (!(in >> section >> build.num_road_pivots >> build.num_social_pivots >>
        optimize_pivots >> build.poi_index.r_min >> build.poi_index.r_max >>
        build.poi_index.rtree.max_entries >>
        build.social_index.leaf_cell_size >> build.social_index.fanout >>
        build.seed >> backend >> build.ch.witness_hop_limit >>
        build.ch.witness_settle_limit >> cache_entries) ||
      section != "build") {
    return Status::IoError("malformed snapshot build section");
  }
  if (backend != static_cast<int>(DistanceBackendKind::kDijkstra) &&
      backend != static_cast<int>(DistanceBackendKind::kContractionHierarchy)) {
    return Status::IoError("unknown distance backend in snapshot");
  }
  build.distance_backend = static_cast<DistanceBackendKind>(backend);
  build.optimize_pivots = optimize_pivots == 1;
  // What the build GPSSN_CHECKs: a snapshot outside it fails to load
  // instead of aborting.
  const PoiIndexOptions& poi = build.poi_index;
  const SocialIndexOptions& social = build.social_index;
  const ChOptions& ch = build.ch;
  const struct {
    const char* field;
    bool ok;
  } ranges[] = {
      {"optimize_pivots", optimize_pivots == 0 || optimize_pivots == 1},
      {"r_min", poi.r_min > 0.0},
      {"r_max", poi.r_max >= poi.r_min},
      {"rtree.max_entries", poi.rtree.max_entries >= 4},
      {"leaf_cell_size", social.leaf_cell_size >= 1},
      {"fanout", social.fanout >= 2},
      {"ch.witness_hop_limit",
       ch.witness_hop_limit >= 0 && ch.witness_hop_limit <= kMaxWitnessLimit},
      {"ch.witness_settle_limit",
       ch.witness_settle_limit >= 0 &&
           ch.witness_settle_limit <= kMaxWitnessLimit},
      {"distance_cache_entries", cache_entries >= 0},
  };
  for (const auto& range : ranges) {
    if (!range.ok) {
      return Status::IoError(std::string("snapshot build option ") +
                             range.field + " out of range");
    }
  }
  build.distance_cache_entries = static_cast<size_t>(cache_entries);
  if (const Status counts = CheckPivotCounts(ssn, build); !counts.ok()) {
    return Status::IoError("snapshot pivot counts: " + counts.message());
  }
  if (!(in >> section) || section != "end") {
    return Status::IoError("missing snapshot trailer");
  }

  return std::make_unique<GpssnDatabase>(std::move(ssn), build);
}

}  // namespace gpssn
