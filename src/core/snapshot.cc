#include "core/snapshot.h"

#include <algorithm>
#include <fstream>
#include <functional>

#include "ssn/serialize.h"

namespace gpssn {

namespace {
constexpr char kSnapshotMagic[] = "gpssn-snapshot-v2";
constexpr size_t kMaxKeywords = 1u << 20;
// Far above any useful CH witness limit, and low enough that the CH build's
// scaled settle budget cannot overflow an int.
constexpr int kMaxWitnessLimit = 1 << 20;
}  // namespace

Status SaveSnapshot(const GpssnDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << kSnapshotMagic << "\n";
  GPSSN_RETURN_NOT_OK(WriteSsnBody(out, db.ssn()));

  const GpssnBuildOptions& build = db.build_options();
  out << "build " << build.poi_index.r_min << " " << build.poi_index.r_max
      << " " << build.poi_index.sub_samples_per_node << " "
      << build.poi_index.page_size << " " << build.poi_index.rtree.max_entries
      << " " << build.poi_index.rtree.reinsert_fraction << " "
      << build.social_index.leaf_cell_size << " " << build.social_index.fanout
      << " " << build.social_index.page_size << " " << build.seed << " "
      << static_cast<int>(build.distance_backend) << " "
      << build.ch.witness_hop_limit << " " << build.ch.witness_settle_limit
      << " " << build.distance_cache_entries << "\n";

  const auto& road_pivots = db.road_pivots().pivots();
  const auto& social_pivots = db.social_pivots().pivots();
  out << "pivots " << road_pivots.size() << " " << social_pivots.size();
  for (VertexId v : road_pivots) out << " " << v;
  for (UserId u : social_pivots) out << " " << u;
  out << "\n";

  out << "poiaug " << db.ssn().num_pois() << "\n";
  for (PoiId id = 0; id < db.ssn().num_pois(); ++id) {
    const PoiAug& aug = db.poi_index().poi_aug(id);
    out << aug.sup_keywords.size();
    for (KeywordId kw : aug.sup_keywords) out << " " << kw;
    out << " " << aug.sub_keywords.size();
    for (KeywordId kw : aug.sub_keywords) out << " " << kw;
    out << "\n";
  }
  out << "end\n";
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::unique_ptr<GpssnDatabase>> LoadSnapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string magic;
  if (!(in >> magic) || magic != kSnapshotMagic) {
    return Status::IoError("unsupported snapshot version '" + magic +
                           "' in " + path + " (this build reads " +
                           kSnapshotMagic + ")");
  }
  GPSSN_ASSIGN_OR_RETURN(SpatialSocialNetwork ssn, ReadSsnBody(in));

  std::string section;
  GpssnBuildOptions build;
  int backend = -1;
  if (!(in >> section >> build.poi_index.r_min >> build.poi_index.r_max >>
        build.poi_index.sub_samples_per_node >> build.poi_index.page_size >>
        build.poi_index.rtree.max_entries >>
        build.poi_index.rtree.reinsert_fraction >>
        build.social_index.leaf_cell_size >> build.social_index.fanout >>
        build.social_index.page_size >> build.seed >> backend >>
        build.ch.witness_hop_limit >> build.ch.witness_settle_limit >>
        build.distance_cache_entries) ||
      section != "build") {
    return Status::IoError("malformed snapshot build section");
  }
  if (backend != static_cast<int>(DistanceBackendKind::kDijkstra) &&
      backend != static_cast<int>(DistanceBackendKind::kContractionHierarchy)) {
    return Status::IoError("unknown distance backend in snapshot");
  }
  build.distance_backend = static_cast<DistanceBackendKind>(backend);
  for (const int limit :
       {build.ch.witness_hop_limit, build.ch.witness_settle_limit}) {
    if (limit < 0 || limit > kMaxWitnessLimit) {
      return Status::IoError("CH witness limit out of range in snapshot");
    }
  }

  size_t num_road_pivots = 0, num_social_pivots = 0;
  if (!(in >> section >> num_road_pivots >> num_social_pivots) ||
      section != "pivots" || num_road_pivots == 0 || num_social_pivots == 0 ||
      num_road_pivots > static_cast<size_t>(ssn.road().num_vertices()) ||
      num_social_pivots > static_cast<size_t>(ssn.num_users())) {
    return Status::IoError("malformed snapshot pivots section");
  }
  build.num_road_pivots = static_cast<int>(num_road_pivots);
  build.num_social_pivots = static_cast<int>(num_social_pivots);
  std::vector<VertexId> road_pivots(num_road_pivots);
  for (auto& v : road_pivots) {
    if (!(in >> v) || v < 0 || v >= ssn.road().num_vertices()) {
      return Status::IoError("bad road pivot id");
    }
  }
  std::vector<UserId> social_pivots(num_social_pivots);
  for (auto& u : social_pivots) {
    if (!(in >> u) || u < 0 || u >= ssn.num_users()) {
      return Status::IoError("bad social pivot id");
    }
  }

  int num_pois = 0;
  if (!(in >> section >> num_pois) || section != "poiaug" ||
      num_pois != ssn.num_pois()) {
    return Status::IoError("malformed snapshot poiaug section");
  }
  std::vector<PoiAug> augs(num_pois);
  auto read_keywords = [&](std::vector<KeywordId>* out_kws) -> Status {
    size_t count = 0;
    if (!(in >> count) || count > kMaxKeywords) {
      return Status::IoError("bad keyword count in snapshot");
    }
    out_kws->resize(count);
    for (auto& kw : *out_kws) {
      if (!(in >> kw) || kw < 0 || kw >= ssn.num_topics()) {
        return Status::IoError("bad keyword id in snapshot");
      }
    }
    // Strictly increasing: the PoiIndex constructor takes sorted-unique
    // sets, and a repeated sub_K id would count twice in MatchScore.
    if (std::adjacent_find(out_kws->begin(), out_kws->end(),
                           std::greater_equal<KeywordId>()) !=
        out_kws->end()) {
      return Status::IoError(
          "snapshot keyword sets must be strictly increasing");
    }
    return Status::OK();
  };
  for (PoiId id = 0; id < num_pois; ++id) {
    PoiAug& aug = augs[id];
    GPSSN_RETURN_NOT_OK(read_keywords(&aug.sup_keywords));
    GPSSN_RETURN_NOT_OK(read_keywords(&aug.sub_keywords));
    if (!std::includes(aug.sup_keywords.begin(), aug.sup_keywords.end(),
                       aug.sub_keywords.begin(), aug.sub_keywords.end())) {
      return Status::IoError("snapshot sub_K is not a subset of sup_K");
    }
  }
  if (!(in >> section) || section != "end") {
    return Status::IoError("missing snapshot trailer");
  }

  return std::make_unique<GpssnDatabase>(std::move(ssn), build,
                                         std::move(road_pivots),
                                         std::move(social_pivots),
                                         std::move(augs));
}

}  // namespace gpssn
