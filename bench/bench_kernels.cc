// google-benchmark micro-benchmarks for the substrate kernels: Dijkstra,
// BFS, R*-tree operations, score computations, and pruning predicates.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/pruning.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "index/rstar_tree.h"
#include "roadnet/contraction_hierarchy.h"
#include "roadnet/distance_backend.h"
#include "roadnet/distance_cache.h"
#include "roadnet/road_generator.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"
#include "socialnet/social_generator.h"

namespace gpssn::bench {
namespace {

const RoadNetwork& SharedRoad(int n) {
  static auto* cache = new std::map<int, RoadNetwork>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    RoadGenOptions options;
    options.num_vertices = n;
    options.seed = 1;
    it = cache->emplace(n, GenerateRoadNetwork(options)).first;
  }
  return it->second;
}

const SocialNetwork& SharedSocial(int n) {
  static auto* cache = new std::map<int, SocialNetwork>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    SocialGenOptions options;
    options.num_users = n;
    options.seed = 1;
    it = cache->emplace(n, GenerateSocialNetwork(options)).first;
  }
  return it->second;
}

void BM_DijkstraSingleSource(benchmark::State& state) {
  const RoadNetwork& g = SharedRoad(static_cast<int>(state.range(0)));
  DijkstraEngine engine(&g);
  VertexId source = 0;
  for (auto _ : state) {
    engine.RunFromVertex(source);
    benchmark::DoNotOptimize(engine.Distance(g.num_vertices() - 1));
    source = (source + 101) % g.num_vertices();
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_DijkstraSingleSource)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_DijkstraBoundedBall(benchmark::State& state) {
  const RoadNetwork& g = SharedRoad(5000);
  DijkstraEngine engine(&g);
  EdgePosition pos{0, 0.5};
  for (auto _ : state) {
    engine.RunFromPosition(pos, /*bound=*/static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(engine.Settled().size());
    pos.edge = (pos.edge + 37) % g.num_edges();
  }
}
BENCHMARK(BM_DijkstraBoundedBall)->Arg(2)->Arg(4)->Arg(8);

void BM_BfsFullGraph(benchmark::State& state) {
  const SocialNetwork& g = SharedSocial(static_cast<int>(state.range(0)));
  BfsEngine engine(&g);
  UserId source = 0;
  for (auto _ : state) {
    engine.Run(source);
    benchmark::DoNotOptimize(engine.Visited().size());
    source = (source + 11) % g.num_users();
  }
  state.SetItemsProcessed(state.iterations() * g.num_users());
}
BENCHMARK(BM_BfsFullGraph)->Arg(1000)->Arg(10000);

// Point-to-point engine shoot-out on the same 20K-vertex road network:
// plain Dijkstra (early exit) vs contraction hierarchies.
void BM_PointToPointDijkstra(benchmark::State& state) {
  const RoadNetwork& g = SharedRoad(20000);
  DijkstraEngine engine(&g);
  Rng rng(21);
  for (auto _ : state) {
    const VertexId a = rng.NextBounded(g.num_vertices());
    const VertexId b = rng.NextBounded(g.num_vertices());
    benchmark::DoNotOptimize(engine.VertexToVertex(a, b));
  }
}
BENCHMARK(BM_PointToPointDijkstra);

void BM_PointToPointCh(benchmark::State& state) {
  const RoadNetwork& g = SharedRoad(20000);
  static auto* ch_cache = new std::map<const RoadNetwork*, ContractionHierarchy>();
  auto it = ch_cache->find(&g);
  if (it == ch_cache->end()) {
    it = ch_cache->emplace(&g, ContractionHierarchy()).first;
    it->second.Build(&g);
  }
  ChQuery engine(&it->second);
  Rng rng(21);
  for (auto _ : state) {
    const VertexId a = rng.NextBounded(g.num_vertices());
    const VertexId b = rng.NextBounded(g.num_vertices());
    benchmark::DoNotOptimize(engine.VertexToVertex(a, b));
  }
}
BENCHMARK(BM_PointToPointCh);

// One-to-many kernel shoot-out behind the pluggable DistanceBackend
// interface: the refinement loop's inner operation (one user home -> all
// candidate POIs), as bounded Dijkstra, as a CH bucket query, and as a
// warm-cache row read (the cost a repeated user pays instead of either).
constexpr int kOneToManyTargets = 64;

const std::vector<Poi>& SharedBenchPois(int n) {
  static auto* cache = new std::map<int, std::vector<Poi>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    const RoadNetwork& g = SharedRoad(n);
    Rng rng(77);
    std::vector<Poi> pois(kOneToManyTargets);
    for (int i = 0; i < kOneToManyTargets; ++i) {
      pois[i].id = i;
      pois[i].position =
          EdgePosition{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                       rng.UniformDouble()};
      pois[i].location = g.PositionPoint(pois[i].position);
    }
    it = cache->emplace(n, std::move(pois)).first;
  }
  return it->second;
}

const DistanceBackend& SharedBackend(DistanceBackendKind kind, int n) {
  static auto* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<DistanceBackend>>();
  const auto key = std::make_pair(static_cast<int>(kind), n);
  auto it = cache->find(key);
  if (it == cache->end()) {
    const RoadNetwork& g = SharedRoad(n);
    const std::vector<Poi>& pois = SharedBenchPois(n);
    auto backend = kind == DistanceBackendKind::kContractionHierarchy
                       ? MakeChBackend(&g, &pois)
                       : MakeDijkstraBackend(&g, &pois);
    it = cache->emplace(key, std::move(backend)).first;
  }
  return *it->second;
}

void RunOneToMany(benchmark::State& state, DistanceBackendKind kind) {
  const int n = static_cast<int>(state.range(0));
  const RoadNetwork& g = SharedRoad(n);
  const auto engine = SharedBackend(kind, n).CreateEngine();
  std::vector<EdgePosition> targets;
  targets.reserve(kOneToManyTargets);
  for (const Poi& p : SharedBenchPois(n)) targets.push_back(p.position);
  engine->SetTargets(targets);
  std::vector<double> row(targets.size());
  Rng rng(31);
  for (auto _ : state) {
    const EdgePosition src{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                           rng.UniformDouble()};
    engine->SourceToTargets(src, kInfDistance, row.data());
    benchmark::DoNotOptimize(row[0]);
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}

void BM_OneToManyBoundedDijkstra(benchmark::State& state) {
  RunOneToMany(state, DistanceBackendKind::kDijkstra);
}
BENCHMARK(BM_OneToManyBoundedDijkstra)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

void BM_OneToManyChBucket(benchmark::State& state) {
  RunOneToMany(state, DistanceBackendKind::kContractionHierarchy);
}
BENCHMARK(BM_OneToManyChBucket)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

void BM_OneToManyCacheWarm(benchmark::State& state) {
  // The cache read path is road-size independent; the sweep arg only keeps
  // the three kernels comparable row for row in the report.
  DistanceCache cache;
  constexpr UserId kUsers = 256;
  for (UserId u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kOneToManyTargets; ++i) {
      cache.Insert(u, i, kInfDistance, static_cast<double>(u + i));
    }
  }
  std::vector<double> row(kOneToManyTargets);
  UserId u = 0;
  for (auto _ : state) {
    bool all = true;
    for (int i = 0; i < kOneToManyTargets; ++i) {
      all = cache.Lookup(u, i, kInfDistance, &row[i]) && all;
    }
    benchmark::DoNotOptimize(all);
    u = (u + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kOneToManyTargets);
}
BENCHMARK(BM_OneToManyCacheWarm)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

void BM_RStarTreeInsert(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    RStarTree tree;
    std::vector<Point> pts(state.range(0));
    for (auto& p : pts) {
      p = {rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)};
    }
    state.ResumeTiming();
    for (size_t i = 0; i < pts.size(); ++i) {
      tree.Insert(pts[i], static_cast<int32_t>(i));
    }
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RStarTreeInsert)->Arg(1000)->Arg(10000);

void BM_RStarTreeCircleQuery(benchmark::State& state) {
  Rng rng(9);
  RStarTree tree;
  for (int i = 0; i < 20000; ++i) {
    tree.Insert({rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)}, i);
  }
  std::vector<int32_t> out;
  for (auto _ : state) {
    out.clear();
    const Point c{rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)};
    tree.CircleQuery(c, 5.0, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RStarTreeCircleQuery);

void BM_InterestScore(benchmark::State& state) {
  Rng rng(11);
  const int d = static_cast<int>(state.range(0));
  std::vector<double> a(d), b(d);
  for (int f = 0; f < d; ++f) {
    a[f] = rng.UniformDouble();
    b[f] = rng.UniformDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(InterestScore(a, b));
  }
}
BENCHMARK(BM_InterestScore)->Arg(10)->Arg(100)->Arg(1000);

void BM_MatchScore(benchmark::State& state) {
  Rng rng(13);
  const int d = 100;
  std::vector<double> w(d);
  for (double& p : w) p = rng.UniformDouble();
  std::vector<KeywordId> kws;
  for (KeywordId f = 0; f < d; f += 3) kws.push_back(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchScore(w, kws));
  }
}
BENCHMARK(BM_MatchScore);

void BM_UbMatchScoreBitVector(benchmark::State& state) {
  Rng rng(15);
  std::vector<double> w(100);
  for (double& p : w) p = rng.Bernoulli(0.1) ? rng.UniformDouble() : 0.0;
  std::vector<int> kws;
  for (int f = 0; f < 100; f += 4) kws.push_back(f);
  const KeywordBitVector sig = KeywordBitVector::FromKeywords(kws);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UbMatchScore(w, sig));
  }
}
BENCHMARK(BM_UbMatchScoreBitVector);

// ----- Social scoring kernels -----
//
// The library's 4-lane Interest_Score against a sequential loop, CSR-probe
// vs bitset ESU extension tests, and Corollary 2 with the pairwise memo
// off vs on. The d sweep covers small/medium/large topic vocabularies;
// bench_smoke.sh enforces the 4-lane kernel speedup at d=128.

constexpr int kSocialRows = 256;

std::vector<std::vector<double>> RandomSocialRows(size_t d) {
  Rng rng(23);
  std::vector<std::vector<double>> rows(kSocialRows);
  for (auto& r : rows) {
    r.resize(d);
    for (double& x : r) x = rng.Bernoulli(0.5) ? rng.UniformDouble() : 0.0;
  }
  return rows;
}

// Dot product with one dependent accumulator chain: the sequential order
// the 4-lane kernel is measured against. Kept out of line, like the
// library kernel, so the two timings differ only in the summation order
// and not in how far the compiler interleaves consecutive rows.
[[gnu::noinline]] double SequentialDot(std::span<const double> a,
                                       std::span<const double> b) {
  double s = 0.0;
  for (size_t f = 0; f < a.size(); ++f) s += a[f] * b[f];
  return s;
}

// One query row scored against kSocialRows candidate rows by SequentialDot.
void BM_SocialScoreScalar(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto rows = RandomSocialRows(d);
  const std::vector<double>& q = rows[0];
  std::vector<double> out(kSocialRows);
  for (auto _ : state) {
    for (int i = 0; i < kSocialRows; ++i) out[i] = SequentialDot(q, rows[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kSocialRows);
}
BENCHMARK(BM_SocialScoreScalar)->Arg(8)->Arg(32)->Arg(128);

// The same scoring through the library kernel (UserSimilarity, 4 lanes),
// as SocialScratch::PairPasses and the oracle call it.
void BM_SocialScoreSoa(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto rows = RandomSocialRows(d);
  const std::vector<double>& q = rows[0];
  std::vector<double> out(kSocialRows);
  for (auto _ : state) {
    for (int i = 0; i < kSocialRows; ++i) {
      out[i] = UserSimilarity(InterestMetric::kDotProduct, q, rows[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kSocialRows);
}
BENCHMARK(BM_SocialScoreSoa)->Arg(8)->Arg(32)->Arg(128);

// ESU extension probe, sparse-path shape: walk a candidate's CSR friend
// list and test candidate membership and seen-ness through std::vector<bool>
// over the user id space (what GroupEnumerator does per extension step).
void BM_EsuExtendVectorBool(benchmark::State& state) {
  const SocialNetwork& g = SharedSocial(2000);
  const int n = kSocialRows;
  std::vector<bool> in_candidates(g.num_users(), false);
  std::vector<bool> seen(g.num_users(), false);
  for (int i = 0; i < n; ++i) in_candidates[i] = true;
  for (int i = 0; i < n; i += 3) seen[i] = true;
  for (auto _ : state) {
    size_t extensions = 0;
    for (int i = 0; i < n; ++i) {
      for (UserId v : g.Friends(static_cast<UserId>(i))) {
        if (in_candidates[v] && !seen[v]) ++extensions;
      }
    }
    benchmark::DoNotOptimize(extensions);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EsuExtendVectorBool);

// The same probe over SocialScratch's candidate-local adjacency bitsets:
// one AND-NOT + popcount per word (what ScratchGroupEnumerator does).
void BM_EsuExtendBitset(benchmark::State& state) {
  const SocialNetwork& g = SharedSocial(2000);
  const int n = kSocialRows;
  GpssnQuery q;
  q.issuer = 0;
  q.gamma = 0.0;
  std::vector<UserId> cands;
  for (int i = 0; i < n; ++i) cands.push_back(static_cast<UserId>(i));
  SocialScratch scratch;
  scratch.Build(g, q, cands);
  const size_t words = scratch.adj_words();
  std::vector<uint64_t> seen(words, 0);
  for (int i = 0; i < n; i += 3) seen[i >> 6] |= 1ULL << (i & 63);
  for (auto _ : state) {
    size_t extensions = 0;
    for (int i = 0; i < n; ++i) {
      const uint64_t* adj = scratch.AdjacencyRow(i);
      for (size_t w = 0; w < words; ++w) {
        extensions += static_cast<size_t>(std::popcount(adj[w] & ~seen[w]));
      }
    }
    benchmark::DoNotOptimize(extensions);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EsuExtendBitset);

const SocialNetwork& SharedSocialDim(int n, int d) {
  static auto* cache = new std::map<std::pair<int, int>, SocialNetwork>();
  const auto key = std::make_pair(n, d);
  auto it = cache->find(key);
  if (it == cache->end()) {
    SocialGenOptions options;
    options.num_users = n;
    options.num_topics = d;
    options.seed = 3;
    it = cache->emplace(key, GenerateSocialNetwork(options)).first;
  }
  return it->second;
}

void RunCorollary2(benchmark::State& state, bool memo) {
  const int d = static_cast<int>(state.range(0));
  const SocialNetwork& g = SharedSocialDim(512, d);
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 5;
  q.gamma = 0.25;
  std::vector<UserId> cands;
  const int n_users = g.num_users();
  for (int u = 0; u < n_users; ++u) cands.push_back(static_cast<UserId>(u));
  SocialScratch scratch;
  QueryStats stats;
  for (auto _ : state) {
    std::vector<UserId> work = cands;
    if (memo) {
      scratch.Build(g, q, work);
      ApplyCorollary2(g, q, &work, &stats, &scratch);
    } else {
      ApplyCorollary2(g, q, &work, &stats);
    }
    benchmark::DoNotOptimize(work.size());
  }
  state.SetItemsProcessed(state.iterations() * cands.size());
}

void BM_Corollary2MemoOff(benchmark::State& state) {
  RunCorollary2(state, /*memo=*/false);
}
BENCHMARK(BM_Corollary2MemoOff)->Arg(8)->Arg(32)->Arg(128);

void BM_Corollary2MemoOn(benchmark::State& state) {
  RunCorollary2(state, /*memo=*/true);
}
BENCHMARK(BM_Corollary2MemoOn)->Arg(8)->Arg(32)->Arg(128);

void BM_PruningRegionVectorTest(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> anchor(100);
  for (double& p : anchor) p = rng.Bernoulli(0.05) ? rng.UniformDouble() : 0.0;
  const PruningRegion region(anchor, 0.3);
  std::vector<double> probe(100);
  for (double& p : probe) p = rng.Bernoulli(0.05) ? rng.UniformDouble() : 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.PrunesVector(probe));
  }
}
BENCHMARK(BM_PruningRegionVectorTest);

}  // namespace
}  // namespace gpssn::bench

BENCHMARK_MAIN();
