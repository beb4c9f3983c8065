#include "core/snapshot.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "ssn/serialize.h"

namespace gpssn {

namespace {
constexpr char kSnapshotMagic[] = "gpssn-snapshot-v4";
constexpr size_t kMaxKeywords = 1u << 20;
// Far above any useful CH witness limit, and low enough that the CH build's
// scaled settle budget cannot overflow an int.
constexpr int kMaxWitnessLimit = 1 << 20;
}  // namespace

Status SaveSnapshot(const GpssnDatabase& db, const std::string& path) {
  std::ostringstream out;
  out << kSnapshotMagic << "\n";
  GPSSN_RETURN_NOT_OK(WriteSsnBody(out, db.ssn()));

  const GpssnBuildOptions& build = db.build_options();
  out << "build " << build.poi_index.r_min << " " << build.poi_index.r_max
      << " " << build.poi_index.page_size << " "
      << build.poi_index.rtree.max_entries
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
    const std::span<const uint64_t> sup_mask = db.poi_index().sup_mask(id);
    out << CountSetBits(sup_mask);
    ForEachSetBit(sup_mask, [&](size_t kw) { out << " " << kw; });
    out << "\n";
  }
  out << "end\n";

  return WriteSealedFile(path, out.view());
}

Result<std::unique_ptr<GpssnDatabase>> LoadSnapshot(const std::string& path) {
  std::stringstream in;
  GPSSN_RETURN_NOT_OK(ReadSealedFile(path, kSnapshotMagic, &in));
  GPSSN_ASSIGN_OR_RETURN(SpatialSocialNetwork ssn, ReadSsnBody(in));

  std::string section;
  GpssnBuildOptions build;
  int backend = -1;
  if (!(in >> section >> build.poi_index.r_min >> build.poi_index.r_max >>
        build.poi_index.page_size >> build.poi_index.rtree.max_entries >>
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
  // What the index constructors, the partitioner and the page allocator
  // GPSSN_CHECK: a snapshot outside it fails to load instead of aborting.
  const PoiIndexOptions& poi = build.poi_index;
  const SocialIndexOptions& social = build.social_index;
  const ChOptions& ch = build.ch;
  const struct {
    const char* field;
    bool ok;
  } ranges[] = {
      {"r_min", poi.r_min > 0.0},
      {"r_max", poi.r_max >= poi.r_min},
      {"poi page_size", poi.page_size > 0},
      {"rtree.max_entries", poi.rtree.max_entries >= 4},
      {"rtree.reinsert_fraction", poi.rtree.reinsert_fraction > 0.0 &&
                                      poi.rtree.reinsert_fraction < 0.5},
      {"leaf_cell_size", social.leaf_cell_size >= 1},
      {"fanout", social.fanout >= 2},
      {"social page_size", social.page_size > 0},
      {"ch.witness_hop_limit",
       ch.witness_hop_limit >= 0 && ch.witness_hop_limit <= kMaxWitnessLimit},
      {"ch.witness_settle_limit",
       ch.witness_settle_limit >= 0 &&
           ch.witness_settle_limit <= kMaxWitnessLimit},
  };
  for (const auto& range : ranges) {
    if (!range.ok) {
      return Status::IoError(std::string("snapshot build option ") +
                             range.field + " out of range");
    }
  }

  if (!(in >> section >> build.num_road_pivots >> build.num_social_pivots) ||
      section != "pivots" || !CheckPivotCounts(ssn, build).ok()) {
    return Status::IoError("malformed snapshot pivots section");
  }
  std::vector<VertexId> road_pivots(build.num_road_pivots);
  for (auto& v : road_pivots) {
    if (!(in >> v) || v < 0 || v >= ssn.road().num_vertices()) {
      return Status::IoError("bad road pivot id");
    }
  }
  std::vector<UserId> social_pivots(build.num_social_pivots);
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
  // A sup_K set is its size and then its keyword ids, strictly increasing
  // (as a build writes it: the set bits of its mask in ascending order).
  const size_t mask_words = KeywordMaskWords(ssn.num_topics());
  std::vector<uint64_t> sup_masks(static_cast<size_t>(num_pois) * mask_words,
                                  0);
  std::vector<KeywordId> keywords;
  auto read_keywords = [&](uint64_t* mask) -> Status {
    size_t count = 0;
    if (!(in >> count) || count > kMaxKeywords) {
      return Status::IoError("bad keyword count in snapshot");
    }
    keywords.resize(count);
    for (auto& kw : keywords) {
      if (!(in >> kw) || kw < 0 || kw >= ssn.num_topics()) {
        return Status::IoError("bad keyword id in snapshot");
      }
    }
    if (std::adjacent_find(keywords.begin(), keywords.end(),
                           std::greater_equal<KeywordId>()) !=
        keywords.end()) {
      return Status::IoError(
          "snapshot keyword sets must be strictly increasing");
    }
    AddToKeywordMask(keywords, ssn.num_topics(), mask);
    return Status::OK();
  };
  for (size_t i = 0; i < static_cast<size_t>(num_pois); ++i) {
    GPSSN_RETURN_NOT_OK(read_keywords(sup_masks.data() + i * mask_words));
  }
  if (!(in >> section) || section != "end") {
    return Status::IoError("missing snapshot trailer");
  }

  return std::make_unique<GpssnDatabase>(std::move(ssn), build,
                                         std::move(road_pivots),
                                         std::move(social_pivots),
                                         std::move(sup_masks));
}

}  // namespace gpssn
