#include "roadnet/index_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace gpssn {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const void* data, size_t len, uint64_t hash = kFnvOffset) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

size_t AlignUp8(size_t x) { return (x + 7) & ~size_t{7}; }

struct SectionPayload {
  IndexSectionKind kind;
  const void* data;
  size_t bytes;
  size_t count;
};

// Reads the whole file. A regular file's size only sizes the buffer; the
// loop reads to EOF whatever it says, and a path with no size, such as a
// directory, starts empty and fails in fread, so a failed or stale size
// query is never trusted as the length.
Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::error_code size_error;
  const uintmax_t size_hint = std::filesystem::file_size(path, size_error);
  // One byte past the expected end, so EOF shows without growing.
  std::vector<uint8_t> bytes(size_error ? 0 : size_hint + 1);
  size_t size = 0;
  for (;;) {
    if (size == bytes.size()) {
      bytes.resize(std::max<size_t>(2 * size, size_t{1} << 16));
    }
    const size_t got =
        std::fread(bytes.data() + size, 1, bytes.size() - size, f);
    if (got == 0) break;
    size += got;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("cannot read " + path);
  bytes.resize(size);
  return bytes;
}

}  // namespace

uint64_t RoadNetworkFingerprint(const RoadNetwork& graph) {
  const int64_t n = graph.num_vertices();
  const int64_t m = graph.num_edges();
  uint64_t hash = Fnv1a(&n, sizeof(n));
  hash = Fnv1a(&m, sizeof(m), hash);
  hash = Fnv1a(graph.points().data(), graph.points().size_bytes(), hash);
  hash = Fnv1a(graph.edge_sources().data(), graph.edge_sources().size_bytes(),
               hash);
  hash = Fnv1a(graph.edge_targets().data(), graph.edge_targets().size_bytes(),
               hash);
  hash = Fnv1a(graph.edge_weights().data(), graph.edge_weights().size_bytes(),
               hash);
  return hash;
}

Status SaveRoadIndex(const RoadNetwork& graph, const ContractionHierarchy& ch,
                     const std::string& path) {
  if (!ch.built() || &ch.graph() != &graph) {
    return Status::InvalidArgument(
        "SaveRoadIndex: hierarchy was not built over the given graph");
  }
  const IndexMeta meta{
      graph.num_vertices(),
      graph.num_edges(),
      ch.num_shortcuts(),
      ch.options().witness_hop_limit,
      ch.options().witness_settle_limit,
      RoadNetworkFingerprint(graph),
  };
  const SectionPayload sections[] = {
      {IndexSectionKind::kPoints, graph.points().data(),
       graph.points().size_bytes(), graph.points().size()},
      {IndexSectionKind::kEdgeU, graph.edge_sources().data(),
       graph.edge_sources().size_bytes(), graph.edge_sources().size()},
      {IndexSectionKind::kEdgeV, graph.edge_targets().data(),
       graph.edge_targets().size_bytes(), graph.edge_targets().size()},
      {IndexSectionKind::kEdgeW, graph.edge_weights().data(),
       graph.edge_weights().size_bytes(), graph.edge_weights().size()},
      {IndexSectionKind::kChRank, ch.ranks().data(), ch.ranks().size_bytes(),
       ch.ranks().size()},
      {IndexSectionKind::kChUpOffsets, ch.up_offsets().data(),
       ch.up_offsets().size_bytes(), ch.up_offsets().size()},
      {IndexSectionKind::kChUpArcs, ch.up_arcs().data(),
       ch.up_arcs().size_bytes(), ch.up_arcs().size()},
      {IndexSectionKind::kMeta, &meta, sizeof(meta), 1},
  };
  constexpr size_t kNumSections = sizeof(sections) / sizeof(sections[0]);

  // Lay out: header, section table, 8-byte-aligned payloads.
  std::vector<IndexSectionEntry> table(kNumSections);
  size_t offset =
      sizeof(IndexFileHeader) + kNumSections * sizeof(IndexSectionEntry);
  for (size_t i = 0; i < kNumSections; ++i) {
    offset = AlignUp8(offset);
    table[i].kind = static_cast<uint32_t>(sections[i].kind);
    table[i].offset = offset;
    table[i].bytes = sections[i].bytes;
    table[i].count = sections[i].count;
    table[i].checksum = Fnv1a(sections[i].data, sections[i].bytes);
    offset += sections[i].bytes;
  }
  const size_t file_bytes = offset;

  IndexFileHeader header;
  std::memcpy(header.magic, kRoadIndexMagic, sizeof(header.magic));
  header.version = kRoadIndexVersion;
  header.num_sections = kNumSections;
  header.file_bytes = file_bytes;
  header.table_checksum =
      Fnv1a(table.data(), table.size() * sizeof(IndexSectionEntry));

  std::vector<uint8_t> buffer(file_bytes, 0);
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::memcpy(buffer.data() + sizeof(header), table.data(),
              table.size() * sizeof(IndexSectionEntry));
  for (size_t i = 0; i < kNumSections; ++i) {
    if (sections[i].bytes > 0) {
      std::memcpy(buffer.data() + table[i].offset, sections[i].data,
                  sections[i].bytes);
    }
  }

  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + tmp_path + " for writing");
  }
  const size_t written = std::fwrite(buffer.data(), 1, buffer.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != buffer.size() || !flushed) {
    std::remove(tmp_path.c_str());
    return Status::IoError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Result<RoadIndexBundle> LoadRoadIndex(const std::string& path) {
  GPSSN_ASSIGN_OR_RETURN(const std::vector<uint8_t> file, ReadWholeFile(path));
  const uint8_t* base = file.data();
  const size_t size = file.size();
  if (size < sizeof(IndexFileHeader)) {
    return Status::IoError("truncated road index file: " + path);
  }
  IndexFileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kRoadIndexMagic, sizeof(header.magic)) != 0) {
    return Status::IoError("corrupted road index file (bad magic): " + path);
  }
  if (header.version != kRoadIndexVersion) {
    return Status::IoError("unsupported road-index version " +
                           std::to_string(header.version) + ": " + path);
  }
  if (header.file_bytes != size) {
    return Status::IoError("truncated road index file: " + path);
  }
  const size_t table_bytes =
      static_cast<size_t>(header.num_sections) * sizeof(IndexSectionEntry);
  if (sizeof(header) + table_bytes > size) {
    return Status::IoError("truncated road index file: " + path);
  }
  std::vector<IndexSectionEntry> table(header.num_sections);
  std::memcpy(table.data(), base + sizeof(header), table_bytes);
  if (Fnv1a(table.data(), table_bytes) != header.table_checksum) {
    return Status::IoError("corrupted road index file (section table): " +
                           path);
  }
  const IndexSectionEntry* by_kind[16] = {};
  for (const IndexSectionEntry& entry : table) {
    // Written so that no sum can wrap: offset + bytes overflows uint64_t
    // for offsets near 2^64.
    if (entry.offset % 8 != 0 || entry.bytes > size ||
        entry.offset > size - entry.bytes) {
      return Status::IoError("corrupted road index file (section bounds): " +
                             path);
    }
    if (Fnv1a(base + entry.offset, entry.bytes) != entry.checksum) {
      return Status::IoError("corrupted road index file (section " +
                             std::to_string(entry.kind) + "): " + path);
    }
    if (entry.kind < 16) by_kind[entry.kind] = &entry;
  }
  auto section = [&](IndexSectionKind kind) {
    return by_kind[static_cast<uint32_t>(kind)];
  };
  for (const IndexSectionKind kind :
       {IndexSectionKind::kPoints, IndexSectionKind::kEdgeU,
        IndexSectionKind::kEdgeV, IndexSectionKind::kEdgeW,
        IndexSectionKind::kChRank, IndexSectionKind::kChUpOffsets,
        IndexSectionKind::kChUpArcs, IndexSectionKind::kMeta}) {
    if (section(kind) == nullptr) {
      return Status::IoError("corrupted road index file (missing section " +
                             std::to_string(static_cast<uint32_t>(kind)) +
                             "): " + path);
    }
  }
  const IndexSectionEntry& meta_entry = *section(IndexSectionKind::kMeta);
  if (meta_entry.bytes != sizeof(IndexMeta)) {
    return Status::IoError("corrupted road index file (meta size): " + path);
  }
  IndexMeta meta;
  std::memcpy(&meta, base + meta_entry.offset, sizeof(meta));
  const int64_t n = meta.num_vertices;
  const int64_t m = meta.num_edges;
  // bytes is bounded by the file size, so dividing cannot wrap the way
  // count * elem_bytes can.
  auto sized = [](const IndexSectionEntry& entry, size_t elem_bytes) {
    return entry.bytes % elem_bytes == 0 &&
           entry.bytes / elem_bytes == entry.count;
  };
  auto check_counts = [&](IndexSectionKind kind, size_t elem_bytes,
                          uint64_t expected_count) {
    const IndexSectionEntry& entry = *section(kind);
    return entry.count == expected_count && sized(entry, elem_bytes);
  };
  if (n < 0 || m < 0 ||
      !check_counts(IndexSectionKind::kPoints, sizeof(Point), n) ||
      !check_counts(IndexSectionKind::kEdgeU, sizeof(VertexId), m) ||
      !check_counts(IndexSectionKind::kEdgeV, sizeof(VertexId), m) ||
      !check_counts(IndexSectionKind::kEdgeW, sizeof(double), m) ||
      !check_counts(IndexSectionKind::kChRank, sizeof(int32_t), n) ||
      !check_counts(IndexSectionKind::kChUpOffsets, sizeof(int64_t), n + 1)) {
    return Status::IoError("corrupted road index file (section counts): " +
                           path);
  }

  // Copy the arrays out of the file; the graph's CSR adjacency is rebuilt
  // from its edge list.
  auto copy_array = [&](IndexSectionKind kind, auto* out) {
    const IndexSectionEntry& entry = *section(kind);
    out->resize(entry.count);
    if (entry.bytes > 0) {
      std::memcpy(out->data(), base + entry.offset, entry.bytes);
    }
  };
  std::vector<Point> points;
  std::vector<VertexId> edge_u, edge_v;
  std::vector<double> edge_w;
  copy_array(IndexSectionKind::kPoints, &points);
  copy_array(IndexSectionKind::kEdgeU, &edge_u);
  copy_array(IndexSectionKind::kEdgeV, &edge_v);
  copy_array(IndexSectionKind::kEdgeW, &edge_w);
  for (int64_t e = 0; e < m; ++e) {
    if (edge_u[e] < 0 || edge_u[e] >= n || edge_v[e] < 0 || edge_v[e] >= n ||
        edge_u[e] == edge_v[e]) {
      return Status::IoError("corrupted road index file (edge endpoints): " +
                             path);
    }
    if (!std::isfinite(edge_w[e]) || edge_w[e] < 0.0) {
      return Status::IoError("corrupted road index file (edge weights): " +
                             path);
    }
  }
  auto graph = std::make_shared<RoadNetwork>(RoadNetwork::FromParts(
      std::move(points), std::move(edge_u), std::move(edge_v),
      std::move(edge_w)));
  if (RoadNetworkFingerprint(*graph) != meta.graph_fingerprint) {
    return Status::IoError("corrupted road index file (graph fingerprint): " +
                           path);
  }

  const IndexSectionEntry& arcs_entry = *section(IndexSectionKind::kChUpArcs);
  if (!sized(arcs_entry, sizeof(ContractionHierarchy::UpArc))) {
    return Status::IoError("corrupted road index file (section counts): " +
                           path);
  }
  std::vector<int32_t> rank;
  std::vector<int64_t> up_offsets;
  std::vector<ContractionHierarchy::UpArc> up_arcs;
  copy_array(IndexSectionKind::kChRank, &rank);
  copy_array(IndexSectionKind::kChUpOffsets, &up_offsets);
  copy_array(IndexSectionKind::kChUpArcs, &up_arcs);
  // Checksums only show the file is the one its table describes; anyone
  // who edits it can recompute them. Searches index per-vertex arrays by
  // arc targets and trust the upward order, so the structure is checked
  // too.
  bool offsets_ok = up_offsets[0] == 0 &&
                    up_offsets[static_cast<size_t>(n)] ==
                        static_cast<int64_t>(arcs_entry.count);
  for (size_t v = 0; offsets_ok && v < static_cast<size_t>(n); ++v) {
    offsets_ok = up_offsets[v] <= up_offsets[v + 1];
  }
  if (!offsets_ok) {
    return Status::IoError("corrupted road index file (CSR offsets): " + path);
  }
  std::vector<bool> rank_seen(static_cast<size_t>(n), false);
  for (const int32_t r : rank) {
    if (r < 0 || r >= n || rank_seen[static_cast<size_t>(r)]) {
      return Status::IoError("corrupted road index file (CH ranks): " + path);
    }
    rank_seen[static_cast<size_t>(r)] = true;
  }
  for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
    for (int64_t a = up_offsets[v]; a < up_offsets[v + 1]; ++a) {
      const ContractionHierarchy::UpArc& arc = up_arcs[static_cast<size_t>(a)];
      if (arc.to < 0 || arc.to >= n || rank[arc.to] <= rank[v]) {
        return Status::IoError("corrupted road index file (CH arc targets): " +
                               path);
      }
      if (!std::isfinite(arc.weight) || arc.weight < 0.0) {
        return Status::IoError("corrupted road index file (CH arc weights): " +
                               path);
      }
    }
  }

  ChOptions options;
  options.witness_hop_limit = meta.witness_hop_limit;
  options.witness_settle_limit = meta.witness_settle_limit;
  RoadIndexBundle bundle;
  bundle.ch = std::make_shared<ContractionHierarchy>(
      graph.get(), options, std::move(rank), std::move(up_offsets),
      std::move(up_arcs), static_cast<int>(meta.num_shortcuts));
  bundle.graph = std::move(graph);
  return bundle;
}

}  // namespace gpssn
