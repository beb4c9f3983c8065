// Parity dump: prints every answer and every non-timer QueryStats row of
// a fixed, seeded query mix over the perfbench datasets, so two builds of
// the library can be diffed line by line (scripts/parity.sh builds this
// file against two source trees and diffs the outputs).
//
// Per dataset (UNI x0.2 on the CH backend; ZIPF x0.2 on Dijkstra with a
// 2^19-entry shared distance cache, as perfbench's uni-ch and zipf-maint):
//   - the generated network's gpssn-v2 checksum line (ssn/serialize.h), an
//     FNV-1a of every byte of the network body, so the generators are
//     compared byte for byte;
//   - a fresh ContractionHierarchy of the road network under default
//     ChOptions: FNV-1a digests of its ranks() and up_offsets() bytes and
//     of its up_arcs() field by field, its shortcut count and its round
//     count;
//   - kQueries queries: Query at a random radius and τ, then QueryTopK(3)
//     of the same query, with an AddPoi every kAddPoiEvery queries and an
//     UpdateUserInterests every kDriftEvery (one user, a hot issuer half
//     the time, drifting kDrift of the way to another user's interests,
//     as perfbench's write bursts do). A third of the queries score
//     interests by weighted Jaccard or Hamming instead of the dot product;
//   - on a database that owns a backend (the CH one), after the build and
//     after every AddPoi, kEngineBalls DistanceEngine::BallWithDistances
//     results from a fresh engine of that backend, at fixed POI centers
//     and radii drawn from their own seed (so the query mix is unchanged);
//   - one 2-shard ServingCluster::QueryBatch over kClusterQueries queries
//     (one query in flight, so the shards fill the database's cache in a
//     fixed order).
// Doubles print as %a (exact bits). Every double QueryStats row is a wall
// time and is left out; everything else is deterministic.

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "roadnet/contraction_hierarchy.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"
#include "ssn/serialize.h"

namespace {

using namespace gpssn;  // NOLINT(google-build-using-namespace)

// The seeds, sizes, backends and cache capacity are copies of
// perfbench/gpssn_bench.cc's MakeNetwork, BuildOptions and
// kZipfCacheEntries; keep them in step when those change.
struct Dataset {
  const char* name;
  Distribution distribution;
  uint64_t seed;  // perfbench's network seed for this distribution.
  DistanceBackendKind backend;
  size_t cache_entries;
};

constexpr Dataset kDatasets[] = {
    {"uni-ch", Distribution::kUniform, 11,
     DistanceBackendKind::kContractionHierarchy, 0},
    {"zipf-cache", Distribution::kZipf, 12, DistanceBackendKind::kDijkstra,
     size_t{1} << 19},
};
constexpr double kScale = 0.2;  // Of the paper's Table 2 sizes.
constexpr int kQueries = 400;
constexpr int kAddPoiEvery = 40;
constexpr int kDriftEvery = 10;
constexpr double kDrift = 0.1;  // perfbench's kDrift.
constexpr int kClusterQueries = 120;
constexpr int kHotIssuers = 24;  // Half the issuers come from here.
constexpr int kEngineBalls = 16;
constexpr uint64_t kEngineBallSeed = 7;

void PrintRow(const std::string& tag, const char* name, uint64_t value) {
  std::printf("%s stat %s=%" PRIu64 "\n", tag.c_str(), name, value);
}
void PrintRow(const std::string& tag, const char* name, bool value) {
  std::printf("%s stat %s=%d\n", tag.c_str(), name, value ? 1 : 0);
}
void PrintRow(const std::string& tag, const char* /*name*/,
              const IoStats& value) {
  PrintRow(tag, "io.page_misses", value.page_misses);
  PrintRow(tag, "io.logical_accesses", value.logical_accesses);
}
void PrintRow(const std::string& /*tag*/, const char* /*name*/,
              double /*wall_time*/) {}

void PrintStats(const std::string& tag, const QueryStats& stats) {
// Variadic: the program is built against other revisions' schemas too,
// whose rows may carry more columns.
#define GPSSN_PARITY_ROW(type, name, ...) PrintRow(tag, #name, stats.name);
  GPSSN_QUERY_STATS(GPSSN_PARITY_ROW)
#undef GPSSN_PARITY_ROW
}

void PrintAnswer(const std::string& tag, const GpssnAnswer& answer) {
  std::printf("%s answer found=%d center=%d max_dist=%a users=", tag.c_str(),
              answer.found ? 1 : 0, answer.center, answer.max_dist);
  for (UserId u : answer.users) std::printf("%d,", u);
  std::printf(" pois=");
  for (PoiId o : answer.pois) std::printf("%d,", o);
  std::printf("\n");
}

void PrintStatus(const std::string& tag, const Status& status) {
  std::printf("%s status=%s\n", tag.c_str(), status.ToString().c_str());
}

// A hot issuer half the time, otherwise any user.
UserId RandomIssuer(const GpssnDatabase& db, Rng* rng) {
  return static_cast<UserId>(rng->Bernoulli(0.5)
                                 ? rng->NextBounded(kHotIssuers)
                                 : rng->NextBounded(db.ssn().num_users()));
}

GpssnQuery RandomQuery(const GpssnDatabase& db, Rng* rng) {
  GpssnQuery q;
  q.issuer = RandomIssuer(db, rng);
  q.tau = static_cast<int>(rng->UniformInt(2, 5));
  q.gamma = rng->UniformDouble(0.2, 0.4);
  q.theta = rng->UniformDouble(0.2, 0.4);
  q.radius = rng->UniformDouble(0.5, 4.0);
  // Users hold a few of 100 topics, so nearly every Hamming similarity
  // lies in [0.92, 1]; γ is drawn where it passes some pairs and not all.
  switch (rng->NextBounded(6)) {
    case 0:
      q.metric = InterestMetric::kJaccard;
      break;
    case 1:
      q.metric = InterestMetric::kHamming;
      q.gamma = rng->UniformDouble(0.95, 0.99);
      break;
    default:
      break;
  }
  return q;
}

std::string QueryTag(const char* dataset, const char* path, int i,
                     const GpssnQuery& q) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s %s q%d issuer=%d tau=%d r=%a metric=%d",
                dataset, path, i, q.issuer, q.tau, q.radius,
                static_cast<int>(q.metric));
  return buf;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// 64-bit FNV-1a over the bytes of `values`, continuing from `hash`.
template <typename T>
uint64_t Fnv1a(std::span<const T> values, uint64_t hash = kFnvOffset) {
  for (const std::byte b : std::as_bytes(values)) {
    hash ^= static_cast<uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The up arcs field by field: an UpArc has padding bytes, which hold
// whatever the build left there.
uint64_t UpArcsDigest(const ContractionHierarchy& ch) {
  uint64_t hash = kFnvOffset;
  for (const ContractionHierarchy::UpArc& arc : ch.up_arcs()) {
    hash = Fnv1a(std::span(&arc.to, 1), hash);
    hash = Fnv1a(std::span(&arc.weight, 1), hash);
  }
  return hash;
}

void PrintNetwork(const char* dataset, const SpatialSocialNetwork& ssn) {
  std::ostringstream body;
  PrintStatus(std::string(dataset) + " network", WriteSsnBody(body, ssn));
  std::printf("%s network %s", dataset, ChecksumLine(body.str()).c_str());
}

void PrintHierarchy(const char* dataset, const RoadNetwork& road) {
  ContractionHierarchy ch;
  ch.Build(&road);
  std::printf("%s ch ranks=%016" PRIx64 " up_offsets=%016" PRIx64
              " up_arcs=%016" PRIx64 " shortcuts=%d rounds=%d\n",
              dataset, Fnv1a(ch.ranks()), Fnv1a(ch.up_offsets()),
              UpArcsDigest(ch), ch.num_shortcuts(), ch.build_rounds());
}

struct BallProbe {
  PoiId center;
  double radius;
};

std::vector<BallProbe> EngineBallProbes(const GpssnDatabase& db) {
  Rng rng(kEngineBallSeed);
  std::vector<BallProbe> probes;
  for (int i = 0; i < kEngineBalls; ++i) {
    const auto center =
        static_cast<PoiId>(rng.NextBounded(db.ssn().num_pois()));
    probes.push_back({center, rng.UniformDouble(0.5, 8.0)});
  }
  return probes;
}

// Each probe's ball as `id:distance` pairs in the engine's order.
void PrintEngineBalls(const std::string& tag, const GpssnDatabase& db,
                      const std::vector<BallProbe>& probes) {
  const DistanceBackend* backend = db.distance_backend();
  if (backend == nullptr) return;
  const std::unique_ptr<DistanceEngine> engine = backend->CreateEngine();
  for (size_t i = 0; i < probes.size(); ++i) {
    std::printf("%s engine_ball%zu center=%d r=%a pois=", tag.c_str(), i,
                probes[i].center, probes[i].radius);
    for (const auto& [poi, dist] : engine->BallWithDistances(
             db.ssn().poi(probes[i].center).position, probes[i].radius)) {
      std::printf("%d:%a,", poi, dist);
    }
    std::printf("\n");
  }
}

void AddRandomPoi(GpssnDatabase* db, Rng* rng) {
  const SpatialSocialNetwork& ssn = db->ssn();
  EdgePosition position;
  position.edge = static_cast<EdgeId>(rng->NextBounded(ssn.road().num_edges()));
  position.t = rng->UniformDouble();
  std::vector<KeywordId> keywords = {
      static_cast<KeywordId>(rng->NextBounded(ssn.num_topics()))};
  const Result<PoiId> id = db->AddPoi(position, std::move(keywords));
  std::printf("add_poi status=%s id=%d\n", id.status().ToString().c_str(),
              id.ok() ? *id : -1);
}

// User u's interests move kDrift of the way towards user v's.
void DriftRandomUser(GpssnDatabase* db, Rng* rng) {
  const SocialNetwork& social = db->ssn().social();
  const UserId u = RandomIssuer(*db, rng);
  const auto v = static_cast<UserId>(rng->NextBounded(social.num_users()));
  const std::span<const double> a = social.Interests(u);
  const std::span<const double> b = social.Interests(v);
  std::vector<double> mixed(a.size());
  for (size_t f = 0; f < a.size(); ++f) {
    mixed[f] = (1.0 - kDrift) * a[f] + kDrift * b[f];
  }
  const Status status = db->UpdateUserInterests(u, mixed);
  std::printf("drift user=%d towards=%d status=%s\n", u, v,
              status.ToString().c_str());
}

void RunDataset(const Dataset& dataset) {
  SyntheticSsnOptions data;
  data.distribution = dataset.distribution;
  data.seed = dataset.seed;
  data.num_road_vertices = static_cast<int>(20000 * kScale);
  data.num_pois = static_cast<int>(10000 * kScale);
  data.num_users = static_cast<int>(30000 * kScale);
  GpssnBuildOptions build;
  build.distance_backend = dataset.backend;
  build.distance_cache_entries = dataset.cache_entries;
  GpssnDatabase db(MakeSynthetic(data), build);
  std::printf("%s users=%d pois=%d\n", dataset.name, db.ssn().num_users(),
              db.ssn().num_pois());
  PrintNetwork(dataset.name, db.ssn());
  PrintHierarchy(dataset.name, db.ssn().road());

  const std::vector<BallProbe> probes = EngineBallProbes(db);
  PrintEngineBalls(std::string(dataset.name) + " build", db, probes);
  Rng rng(2026);
  for (int i = 0; i < kQueries; ++i) {
    if (i > 0 && i % kAddPoiEvery == 0) {
      AddRandomPoi(&db, &rng);
      PrintEngineBalls(std::string(dataset.name) + " before q" +
                           std::to_string(i),
                       db, probes);
    }
    if (i > 0 && i % kDriftEvery == 0) DriftRandomUser(&db, &rng);
    const GpssnQuery q = RandomQuery(db, &rng);
    QueryStats stats;
    const std::string tag = QueryTag(dataset.name, "query", i, q);
    const Result<GpssnAnswer> answer = db.Query(q, &stats);
    PrintStatus(tag, answer.status());
    if (answer.ok()) PrintAnswer(tag, *answer);
    PrintStats(tag, stats);

    const std::string topk_tag = QueryTag(dataset.name, "top3", i, q);
    const Result<std::vector<GpssnAnswer>> top =
        db.QueryTopK(q, 3, QueryOptions(), &stats);
    PrintStatus(topk_tag, top.status());
    if (top.ok()) {
      for (const GpssnAnswer& a : *top) PrintAnswer(topk_tag, a);
    }
    PrintStats(topk_tag, stats);
  }

  serving::ServingOptions options;
  options.num_shards = 2;
  options.max_inflight = 1;
  auto cluster = serving::ServingCluster::Create(db, options);
  PrintStatus(std::string(dataset.name) + " cluster", cluster.status());
  if (!cluster.ok()) return;
  std::vector<GpssnQuery> batch;
  for (int i = 0; i < kClusterQueries; ++i) {
    batch.push_back(RandomQuery(db, &rng));
  }
  BatchStats batch_stats;
  const std::vector<BatchQueryResult> results =
      (*cluster)->QueryBatch(batch, &batch_stats);
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string tag =
        QueryTag(dataset.name, "cluster", static_cast<int>(i), batch[i]);
    PrintStatus(tag, results[i].status);
    if (results[i].status.ok()) PrintAnswer(tag, results[i].answer);
    PrintStats(tag, results[i].stats);
  }
  PrintStats(std::string(dataset.name) + " cluster totals", batch_stats.totals);
}

}  // namespace

int main() {
  for (const Dataset& dataset : kDatasets) RunDataset(dataset);
  return 0;
}
