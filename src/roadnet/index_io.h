// Copyright 2026 The gpssn Authors.
//
// Versioned binary persistence for the road graph + contraction hierarchy:
// a continental-scale CH takes minutes to build but one file read and one
// copy of each array to load back.
//
// File layout (all integers little-endian, payloads 8-byte aligned):
//
//   IndexFileHeader   magic "GPSSNIDX", version, section count, total
//                     bytes, checksum of the section table
//   IndexSectionEntry × num_sections
//                     kind, offset, byte length, element count, FNV-1a
//                     checksum of the payload
//   payloads          raw arrays: graph (points, edge endpoints, weights),
//                     CH (rank, up offsets, up arcs), and an IndexMeta
//                     section with counts, build options, and the source
//                     graph fingerprint
//
// Load validates sizes, checksums and the hierarchy's structure before
// trusting anything (a checksum is no seal: whoever edits the file can
// recompute it); distinct error messages distinguish wrong-version,
// truncated, and corrupted files. Writes go to `path + ".tmp"` and rename into place, so readers
// never observe a half-written index.

#ifndef GPSSN_ROADNET_INDEX_IO_H_
#define GPSSN_ROADNET_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/result.h"
#include "common/status.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/road_graph.h"

namespace gpssn {

inline constexpr char kRoadIndexMagic[8] = {'G', 'P', 'S', 'S',
                                            'N', 'I', 'D', 'X'};
inline constexpr uint32_t kRoadIndexVersion = 1;

// gpssn-serialized(bytes=32)
struct IndexFileHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t num_sections = 0;
  uint64_t file_bytes = 0;
  uint64_t table_checksum = 0;  // FNV-1a over the section table.
};
static_assert(std::is_trivially_copyable_v<IndexFileHeader>,
              "IndexFileHeader is stored verbatim in index files");
static_assert(sizeof(IndexFileHeader) == 32,
              "IndexFileHeader file layout is fixed at 32 bytes");

enum class IndexSectionKind : uint32_t {
  kPoints = 1,     // Point[num_vertices]
  kEdgeU = 2,      // VertexId[num_edges]
  kEdgeV = 3,      // VertexId[num_edges]
  kEdgeW = 4,      // double[num_edges]
  kChRank = 5,     // int32[num_vertices]
  kChUpOffsets = 6,  // int64[num_vertices + 1]
  kChUpArcs = 7,   // ContractionHierarchy::UpArc[...]
  kMeta = 8,       // IndexMeta[1]
};

// gpssn-serialized(bytes=40)
struct IndexSectionEntry {
  uint32_t kind = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // From file start; 8-byte aligned.
  uint64_t bytes = 0;
  uint64_t count = 0;  // Element count (sanity cross-check).
  uint64_t checksum = 0;  // FNV-1a over the payload bytes.
};
static_assert(std::is_trivially_copyable_v<IndexSectionEntry>,
              "IndexSectionEntry is stored verbatim in index files");
static_assert(sizeof(IndexSectionEntry) == 40,
              "IndexSectionEntry file layout is fixed at 40 bytes");

// gpssn-serialized(bytes=40)
struct IndexMeta {
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  int64_t num_shortcuts = 0;
  int32_t witness_hop_limit = 0;
  int32_t witness_settle_limit = 0;
  uint64_t graph_fingerprint = 0;
};
static_assert(std::is_trivially_copyable_v<IndexMeta>,
              "IndexMeta is stored verbatim in index files");
static_assert(sizeof(IndexMeta) == 40,
              "IndexMeta file layout is fixed at 40 bytes");

/// FNV-1a fingerprint of a road network's flat arrays (vertex/edge counts
/// and the raw bytes of coordinates, endpoints, and weights). A saved CH
/// is only valid for the exact graph it was built from.
uint64_t RoadNetworkFingerprint(const RoadNetwork& graph);

/// A graph + hierarchy pair loaded from one index file. The hierarchy
/// points into the graph, so keep the graph alive as long as it.
struct RoadIndexBundle {
  std::shared_ptr<const RoadNetwork> graph;
  std::shared_ptr<const ContractionHierarchy> ch;
};

/// Writes `graph` + `ch` to `path` (tmp file + rename).
Status SaveRoadIndex(const RoadNetwork& graph, const ContractionHierarchy& ch,
                     const std::string& path);

/// Reads `path` and reconstructs the bundle, validating magic, version,
/// section table, payload checksums, and that the arrays form a valid
/// graph and hierarchy (finite non-negative weights, a rank permutation,
/// CSR offsets within the arc array, every up-arc in range and upward).
Result<RoadIndexBundle> LoadRoadIndex(const std::string& path);

}  // namespace gpssn

#endif  // GPSSN_ROADNET_INDEX_IO_H_
