// Round-trip and corruption tests for the road-index file format: a saved
// graph + CH must load back into a hierarchy that answers
// identically to the in-process build, and damaged files — truncated at
// every length, flipped at every byte, wrong version, wrong magic, or
// edited with their checksums recomputed — must be rejected with the
// matching error, never trusted.

#include "roadnet/index_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "roadnet/distance_backend.h"
#include "roadnet/road_generator.h"

namespace gpssn {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

RoadNetwork MakeGraph(uint64_t seed, int n = 300) {
  RoadGenOptions gen;
  gen.num_vertices = n;
  gen.seed = seed;
  return GenerateRoadNetwork(gen);
}

// Asserts that `bundle` holds exactly the arrays of `g` and `ch`.
void ExpectSameArrays(const RoadIndexBundle& bundle, const RoadNetwork& g,
                      const ContractionHierarchy& ch) {
  // Graph arrays reproduce exactly.
  ASSERT_EQ(bundle.graph->num_vertices(), g.num_vertices());
  ASSERT_EQ(bundle.graph->num_edges(), g.num_edges());
  EXPECT_EQ(RoadNetworkFingerprint(*bundle.graph), RoadNetworkFingerprint(g));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(bundle.graph->edge_u(e), g.edge_u(e));
    ASSERT_EQ(bundle.graph->edge_v(e), g.edge_v(e));
    ASSERT_EQ(bundle.graph->edge_weight(e), g.edge_weight(e));
  }

  // CH arrays reproduce exactly (ranks, CSR offsets, arcs).
  ASSERT_TRUE(bundle.ch->built());
  EXPECT_EQ(bundle.ch->num_shortcuts(), ch.num_shortcuts());
  ASSERT_EQ(bundle.ch->ranks().size(), ch.ranks().size());
  for (size_t i = 0; i < ch.ranks().size(); ++i) {
    ASSERT_EQ(bundle.ch->ranks()[i], ch.ranks()[i]);
  }
  ASSERT_EQ(bundle.ch->up_offsets().size(), ch.up_offsets().size());
  for (size_t i = 0; i < ch.up_offsets().size(); ++i) {
    ASSERT_EQ(bundle.ch->up_offsets()[i], ch.up_offsets()[i]);
  }
  ASSERT_EQ(bundle.ch->up_arcs().size(), ch.up_arcs().size());
  for (size_t i = 0; i < ch.up_arcs().size(); ++i) {
    ASSERT_EQ(bundle.ch->up_arcs()[i].to, ch.up_arcs()[i].to);
    ASSERT_EQ(bundle.ch->up_arcs()[i].middle, ch.up_arcs()[i].middle);
    ASSERT_EQ(bundle.ch->up_arcs()[i].weight, ch.up_arcs()[i].weight);
  }
}

// A saved file's section table, read back from its bytes.
std::vector<IndexSectionEntry> SectionTable(const std::vector<uint8_t>& bytes) {
  IndexFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<IndexSectionEntry> table(header.num_sections);
  std::memcpy(table.data(), bytes.data() + sizeof(header),
              table.size() * sizeof(IndexSectionEntry));
  return table;
}

// File offset of `kind`'s entry in the section table.
size_t EntryOffset(const std::vector<uint8_t>& bytes, IndexSectionKind kind) {
  const std::vector<IndexSectionEntry> table = SectionTable(bytes);
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i].kind == static_cast<uint32_t>(kind)) {
      return sizeof(IndexFileHeader) + i * sizeof(IndexSectionEntry);
    }
  }
  ADD_FAILURE() << "no section " << static_cast<uint32_t>(kind);
  return 0;
}

// File offset of `kind`'s payload.
size_t SectionOffset(const std::vector<uint8_t>& bytes,
                     IndexSectionKind kind) {
  IndexSectionEntry entry;
  std::memcpy(&entry, bytes.data() + EntryOffset(bytes, kind), sizeof(entry));
  return entry.offset;
}

template <typename T>
void Poke(std::vector<uint8_t>* bytes, size_t offset, const T& value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Recomputes the checksum of every section that lies inside the file, then
// the table's, as anyone who edits the file can.
void Reseal(std::vector<uint8_t>* bytes) {
  std::vector<IndexSectionEntry> table = SectionTable(*bytes);
  for (IndexSectionEntry& entry : table) {
    if (entry.bytes <= bytes->size() &&
        entry.offset <= bytes->size() - entry.bytes) {
      entry.checksum = Fnv1a(bytes->data() + entry.offset, entry.bytes);
    }
  }
  const size_t table_bytes = table.size() * sizeof(IndexSectionEntry);
  std::memcpy(bytes->data() + sizeof(IndexFileHeader), table.data(),
              table_bytes);
  Poke(bytes, offsetof(IndexFileHeader, table_checksum),
       Fnv1a(reinterpret_cast<const uint8_t*>(table.data()), table_bytes));
}

TEST(IndexIoTest, RoundTripIsBitIdentical) {
  const RoadNetwork g = MakeGraph(3);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("roundtrip.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());

  auto loaded = LoadRoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RoadIndexBundle& bundle = loaded.value();
  ExpectSameArrays(bundle, g, ch);

  // Loaded hierarchy answers identically.
  ChQuery built_query(&ch);
  ChQuery loaded_query(bundle.ch.get());
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    ASSERT_EQ(built_query.VertexToVertex(s, t),
              loaded_query.VertexToVertex(s, t));
  }
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsWrongVersion) {
  const RoadNetwork g = MakeGraph(5, 120);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("wrong_version.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[8] = 0x7f;  // Version field (u32 after the 8-byte magic).
  WriteAll(path, bytes);
  auto loaded = LoadRoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported road-index version"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(IndexIoTest, RejectsBadMagic) {
  const RoadNetwork g = MakeGraph(5, 120);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("bad_magic.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xff;
  WriteAll(path, bytes);
  auto loaded = LoadRoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupted road index file"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// Every truncation length of a small file, empty included.
TEST(IndexIoTest, RejectsTruncation) {
  const RoadNetwork g = MakeGraph(7, 61);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("truncated.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  const std::vector<uint8_t> bytes = ReadAll(path);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    WriteAll(path, std::vector<uint8_t>(bytes.begin(),
                                        bytes.begin() + keep));
    auto loaded = LoadRoadIndex(path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    ASSERT_NE(loaded.status().message().find("truncated road index file"),
              std::string::npos)
        << "kept " << keep << " bytes: " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Every byte of a small file, flipped in its low bit and in all bits. The
// header, the section table and every payload are checksummed, so each
// flip there must be rejected; only alignment padding between sections is
// covered by no checksum, and a flip there must load the saved arrays.
TEST(IndexIoTest, RejectsPayloadCorruption) {
  // An odd vertex count leaves 4 bytes of padding after the int32 ranks.
  const RoadNetwork g = MakeGraph(9, 61);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("corrupt.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  const std::vector<uint8_t> original = ReadAll(path);
  const std::vector<IndexSectionEntry> table = SectionTable(original);
  std::vector<bool> covered(original.size(), false);
  std::fill(covered.begin(),
            covered.begin() + sizeof(IndexFileHeader) +
                table.size() * sizeof(IndexSectionEntry),
            true);
  for (const IndexSectionEntry& entry : table) {
    std::fill(covered.begin() + entry.offset,
              covered.begin() + entry.offset + entry.bytes, true);
  }
  ASSERT_GT(std::count(covered.begin(), covered.end(), false), 0);
  for (size_t pos = 0; pos < original.size(); ++pos) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
      SCOPED_TRACE("flip " + std::to_string(mask) + " at byte " +
                   std::to_string(pos));
      std::vector<uint8_t> bytes = original;
      bytes[pos] ^= mask;
      WriteAll(path, bytes);
      auto loaded = LoadRoadIndex(path);
      if (covered[pos]) {
        ASSERT_FALSE(loaded.ok()) << "not detected";
      } else if (loaded.ok()) {
        ExpectSameArrays(loaded.value(), g, ch);
        if (HasFatalFailure()) return;
      }
    }
  }
  std::remove(path.c_str());
}

// Checksums are no seal: these files are edited and then resealed, so
// every checksum matches. The loader must still reject each one.
TEST(IndexIoTest, RejectsStructurallyBrokenFilesWithValidChecksums) {
  const RoadNetwork g = MakeGraph(19, 60);
  ContractionHierarchy ch;
  ch.Build(&g);
  const std::string path = TempPath("resealed.gpssnidx");
  ASSERT_TRUE(SaveRoadIndex(g, ch, path).ok());
  const std::vector<uint8_t> original = ReadAll(path);
  const int n = g.num_vertices();
  ASSERT_GT(ch.up_arcs().size(), 0u);
  // The tail of up-arc 0: the first vertex with an upward arc.
  VertexId tail = 0;
  while (ch.up_offsets()[tail + 1] == 0) ++tail;
  const size_t rank_at = SectionOffset(original, IndexSectionKind::kChRank);
  const size_t offsets_at =
      SectionOffset(original, IndexSectionKind::kChUpOffsets);
  const size_t arcs_at = SectionOffset(original, IndexSectionKind::kChUpArcs);
  using Arc = ContractionHierarchy::UpArc;

  struct Case {
    const char* name;
    std::function<void(std::vector<uint8_t>*)> patch;
  };
  const Case cases[] = {
      // offset + bytes wraps past 2^64 back into the file.
      {"section offset near 2^64",
       [](std::vector<uint8_t>* b) {
         const size_t entry = EntryOffset(*b, IndexSectionKind::kPoints);
         Poke(b, entry + offsetof(IndexSectionEntry, offset),
              std::numeric_limits<uint64_t>::max() - 4095);
         Poke(b, entry + offsetof(IndexSectionEntry, bytes), uint64_t{4112});
       }},
      // count * element size wraps to the small byte length each section
      // keeps: 16 (points), 4 (ranks), 16 (offsets).
      {"vertex count wraps the section sizes",
       [](std::vector<uint8_t>* b) {
         const uint64_t huge = (uint64_t{1} << 62) + 1;
         Poke(b,
              SectionOffset(*b, IndexSectionKind::kMeta) +
                  offsetof(IndexMeta, num_vertices),
              static_cast<int64_t>(huge));
         for (const auto& [kind, count, bytes] :
              {std::tuple{IndexSectionKind::kPoints, huge, uint64_t{16}},
               std::tuple{IndexSectionKind::kChRank, huge, uint64_t{4}},
               std::tuple{IndexSectionKind::kChUpOffsets, huge + 1,
                          uint64_t{16}}}) {
           const size_t entry = EntryOffset(*b, kind);
           Poke(b, entry + offsetof(IndexSectionEntry, count), count);
           Poke(b, entry + offsetof(IndexSectionEntry, bytes), bytes);
         }
       }},
      {"up-arc target out of range",
       [&](std::vector<uint8_t>* b) {
         Poke(b, arcs_at + offsetof(Arc, to), VertexId{n + 1000});
       }},
      {"up-arc target not ranked above its tail",
       [&](std::vector<uint8_t>* b) {
         Poke(b, arcs_at + offsetof(Arc, to), tail);
       }},
      {"CSR offset past the arcs",
       [&](std::vector<uint8_t>* b) {
         Poke(b, offsets_at + sizeof(int64_t), int64_t{1} << 40);
       }},
      {"negative rank",
       [&](std::vector<uint8_t>* b) { Poke(b, rank_at, int32_t{-5}); }},
      {"repeated rank",
       [&](std::vector<uint8_t>* b) { Poke(b, rank_at, ch.ranks()[1]); }},
      {"negative arc weight",
       [&](std::vector<uint8_t>* b) {
         Poke(b, arcs_at + offsetof(Arc, weight), -1.0);
       }},
      {"NaN arc weight",
       [&](std::vector<uint8_t>* b) {
         Poke(b, arcs_at + offsetof(Arc, weight),
              std::numeric_limits<double>::quiet_NaN());
       }},
      // The graph fingerprint is recomputed too, so only the weight check
      // can catch it.
      {"negative edge weight",
       [&](std::vector<uint8_t>* b) {
         std::vector<double> weights(g.edge_weights().begin(),
                                     g.edge_weights().end());
         weights[0] = -1.0;
         const RoadNetwork edited = RoadNetwork::FromParts(
             std::vector<Point>(g.points().begin(), g.points().end()),
             std::vector<VertexId>(g.edge_sources().begin(),
                                   g.edge_sources().end()),
             std::vector<VertexId>(g.edge_targets().begin(),
                                   g.edge_targets().end()),
             weights);
         Poke(b, SectionOffset(*b, IndexSectionKind::kEdgeW), -1.0);
         Poke(b,
              SectionOffset(*b, IndexSectionKind::kMeta) +
                  offsetof(IndexMeta, graph_fingerprint),
              RoadNetworkFingerprint(edited));
       }},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bytes = original;
    c.patch(&bytes);
    Reseal(&bytes);
    WriteAll(path, bytes);
    auto loaded = LoadRoadIndex(path);
    ASSERT_FALSE(loaded.ok()) << c.name << ": loaded";
    EXPECT_NE(loaded.status().message().find("corrupted road index file"),
              std::string::npos)
        << c.name << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileIsAnError) {
  auto loaded = LoadRoadIndex(TempPath("does_not_exist.gpssnidx"));
  ASSERT_FALSE(loaded.ok());
}

TEST(IndexIoTest, DirectoryIsAnIoError) {
  // A path that exists but is no regular file: opening it may succeed,
  // and its size query may fail or report a bogus length.
  const std::string dir = TempPath("index_dir.gpssnidx");
  std::filesystem::create_directories(dir);
  auto loaded = LoadRoadIndex(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
}

TEST(IndexIoTest, BackendLoadsSavedIndexAndRejectsMismatchedGraph) {
  const RoadNetwork g = MakeGraph(11, 200);
  Rng rng(23);
  std::vector<Poi> pois(10);
  for (int i = 0; i < 10; ++i) {
    pois[i].id = i;
    pois[i].position =
        EdgePosition{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                     rng.UniformDouble()};
    pois[i].location = g.PositionPoint(pois[i].position);
  }
  const std::string path = TempPath("backend.gpssnidx");
  std::remove(path.c_str());

  // First construction: no file yet -> builds and saves.
  const auto first = MakeChBackend(&g, &pois, ChOptions{}, path);
  EXPECT_FALSE(first->loaded_from_disk());
  // Second construction: loads the saved index.
  const auto second = MakeChBackend(&g, &pois, ChOptions{}, path);
  EXPECT_TRUE(second->loaded_from_disk());

  // Engines from the built and loaded backends answer identically.
  const auto e1 = first->CreateEngine();
  const auto e2 = second->CreateEngine();
  std::vector<EdgePosition> targets;
  for (const Poi& poi : pois) targets.push_back(poi.position);
  e1->SetTargets(targets);
  e2->SetTargets(targets);
  std::vector<double> d1(targets.size()), d2(targets.size());
  for (int trial = 0; trial < 20; ++trial) {
    const EdgePosition a{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                         rng.UniformDouble()};
    e1->SourceToTargets(a, kInfDistance, d1.data());
    e2->SourceToTargets(a, kInfDistance, d2.data());
    ASSERT_EQ(d1, d2);
    const double radius = rng.UniformDouble(0.3, 6.0);
    ASSERT_EQ(e1->BallWithDistances(a, radius), e2->BallWithDistances(a, radius));
  }

  // A different graph must NOT accept the stale index.
  const RoadNetwork other = MakeGraph(13, 200);
  std::vector<Poi> other_pois(4);
  for (int i = 0; i < 4; ++i) {
    other_pois[i].id = i;
    other_pois[i].position = EdgePosition{
        static_cast<EdgeId>(rng.NextBounded(other.num_edges())),
        rng.UniformDouble()};
    other_pois[i].location = other.PositionPoint(other_pois[i].position);
  }
  const auto third = MakeChBackend(&other, &other_pois, ChOptions{}, path);
  EXPECT_FALSE(third->loaded_from_disk());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gpssn
