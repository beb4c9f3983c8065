// google-benchmark micro-benchmarks for the substrate kernels: Dijkstra,
// BFS, R*-tree operations, score computations, pruning predicates, and the
// simulated buffer pool.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/pagestore.h"
#include "core/options.h"
#include "core/pruning.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "geom/pruning_region.h"
#include "index/rstar_tree.h"
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

// Point-to-point Dijkstra (early exit) on the 20K-vertex road network.
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

// One-to-many kernel shoot-out behind the pluggable DistanceBackend
// interface: the refinement loop's inner operation (one user home -> all
// candidate POIs), as bounded Dijkstra, as a CH sweep, and as a warm-cache
// row read (the cost a repeated user pays instead of either). These time
// rows only; BM_OneToManyChRefine also times the registration a query pays.
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

void BM_OneToManyCh(benchmark::State& state) {
  RunOneToMany(state, DistanceBackendKind::kContractionHierarchy);
}
BENCHMARK(BM_OneToManyCh)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

// What one uni-ch Refine pays the CH engine, all of it timed: register
// about as many targets as its needed POIs (spread over the network), then
// compute about as many rows as it has members with rows.
void BM_OneToManyChRefine(benchmark::State& state) {
  constexpr int kRefineTargets = 256;
  constexpr int kRefineRows = 12;
  const int n = static_cast<int>(state.range(0));
  const RoadNetwork& g = SharedRoad(n);
  const auto engine =
      SharedBackend(DistanceBackendKind::kContractionHierarchy, n)
          .CreateEngine();
  // A few queries' worth of target sets and sources, drawn up front and
  // replayed in turn.
  constexpr int kQueries = 16;
  Rng rng(41);
  std::vector<EdgePosition> targets(kQueries * kRefineTargets);
  std::vector<EdgePosition> sources(kQueries * kRefineRows);
  for (auto* positions : {&targets, &sources}) {
    for (EdgePosition& p : *positions) {
      p = EdgePosition{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                       rng.UniformDouble()};
    }
  }
  std::vector<double> row(kRefineTargets);
  int query = 0;
  for (auto _ : state) {
    engine->SetTargets(std::span<const EdgePosition>(
        targets.data() + query * kRefineTargets, kRefineTargets));
    for (int i = 0; i < kRefineRows; ++i) {
      engine->SourceToTargets(sources[query * kRefineRows + i], kInfDistance,
                              row.data());
      benchmark::DoNotOptimize(row[0]);
    }
    query = (query + 1) % kQueries;
  }
  state.SetItemsProcessed(state.iterations() * kRefineRows);
}
BENCHMARK(BM_OneToManyChRefine)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

void BM_OneToManyCacheWarm(benchmark::State& state) {
  // The cache read path is road-size independent; the sweep arg only keeps
  // the three kernels comparable row for row in the report.
  DistanceCache cache;
  constexpr UserId kUsers = 256;
  std::vector<PoiId> pois(kOneToManyTargets);
  for (int i = 0; i < kOneToManyTargets; ++i) pois[i] = i;
  std::vector<double> row(kOneToManyTargets);
  std::vector<double> tags(kOneToManyTargets, kInfDistance);
  for (UserId u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kOneToManyTargets; ++i) {
      row[i] = static_cast<double>(u + i);
    }
    cache.InsertRow(u, pois, row.data(), tags.data());
  }
  UserId u = 0;
  for (auto _ : state) {
    const bool hit = cache.LookupRow(u, pois, row.data(), tags.data());
    benchmark::DoNotOptimize(hit);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    u = (u + 1) % kUsers;
  }
  state.SetItemsProcessed(state.iterations() * kOneToManyTargets);
}
BENCHMARK(BM_OneToManyCacheWarm)
    ->Arg(10000)->Arg(20000)->Arg(30000)->Arg(40000)->Arg(50000);

// A Refine-shaped trace of Dijkstra rows on ZIPF ×0.2 (4,000 vertices): an
// issuer's candidate centers with their B(c, 2) balls, in ascending order
// of the issuer's farthest ball member, until the balls' union holds about
// 1,000 targets, and 8 member rows read center by center.
struct RefineRowTrace {
  std::vector<EdgePosition> targets;
  std::vector<std::vector<int32_t>> balls;  // Target indices, visit order.
  std::vector<double> issuer_worst;         // Per center, ascending.
  std::vector<EdgePosition> sources;        // The member rows' sources.
};

struct RefineRowData {
  SpatialSocialNetwork ssn;
  std::unique_ptr<DistanceBackend> backend;
  std::vector<RefineRowTrace> traces;
};

const RefineRowData& SharedRefineRowData() {
  static const RefineRowData* data = [] {
    auto* d = new RefineRowData{MakeDataset("ZIPF", 0.2), nullptr, {}};
    const SpatialSocialNetwork& ssn = d->ssn;
    d->backend = MakeDijkstraBackend(&ssn.road(), &ssn.pois());
    const auto engine = d->backend->CreateEngine();
    std::vector<EdgePosition> all;
    for (const Poi& p : ssn.pois()) all.push_back(p.position);
    std::vector<std::vector<PoiId>> balls(ssn.pois().size());
    for (size_t c = 0; c < balls.size(); ++c) {
      for (const auto& [id, dist] :
           engine->BallWithDistances(ssn.poi(static_cast<PoiId>(c)).position,
                                     2.0)) {
        balls[c].push_back(id);
      }
    }
    Rng rng(53);
    std::vector<double> issuer(all.size());
    for (int t = 0; t < 4; ++t) {
      RefineRowTrace trace;
      engine->SetTargets(all);
      const auto pick_user = [&] {
        return static_cast<UserId>(rng.NextBounded(ssn.num_users()));
      };
      engine->SourceToTargets(ssn.user_home(pick_user()), kInfDistance,
                              issuer.data());
      std::vector<std::pair<double, PoiId>> order;
      for (size_t c = 0; c < balls.size(); ++c) {
        double worst = 0.0;
        for (PoiId o : balls[c]) worst = std::max(worst, issuer[o]);
        if (std::isfinite(worst)) {
          order.emplace_back(worst, static_cast<PoiId>(c));
        }
      }
      std::sort(order.begin(), order.end());
      std::vector<int32_t> slot(all.size(), -1);
      for (const auto& [worst, c] : order) {
        if (trace.targets.size() >= 1000) break;
        std::vector<int32_t> ball;
        for (PoiId o : balls[c]) {
          if (slot[o] < 0) {
            slot[o] = static_cast<int32_t>(trace.targets.size());
            trace.targets.push_back(all[o]);
          }
          ball.push_back(slot[o]);
        }
        trace.balls.push_back(std::move(ball));
        trace.issuer_worst.push_back(worst);
      }
      for (int r = 0; r < 8; ++r) {
        trace.sources.push_back(ssn.user_home(pick_user()));
      }
      d->traces.push_back(std::move(trace));
    }
    return d;
  }();
  return *data;
}

// One Refine's member rows on the Dijkstra engine, read center by center:
// each center reads every row over its ball under the current bound; a
// center whose reads all fit sets the bound to their objective, and the
// loop stops at the first center whose issuer distance reaches the bound
// (Lemma 7). Arg 0 computes each row in full at its first read, under the
// bound of that read (SourceToTargets, as Refine did before grown rows);
// arg 1 opens each row and grows it to each ball it reads (OpenRow,
// GrowRow). Both read the same entries, the registration included. The
// `settles_per_row` counter is the vertices one row settles.
void BM_DijkstraRefineRows(benchmark::State& state) {
  const RefineRowData& data = SharedRefineRowData();
  const bool grown = state.range(0) == 1;
  const auto engine = data.backend->CreateEngine();
  std::vector<double> dists;
  std::vector<double> proven;
  std::vector<int32_t> wanted;
  uint64_t rows = 0;
  const uint64_t settled_before = engine->vertices_settled();
  size_t next = 0;
  for (auto _ : state) {
    const RefineRowTrace& trace = data.traces[next];
    next = (next + 1) % data.traces.size();
    const size_t width = trace.targets.size();
    const size_t num_rows = trace.sources.size();
    engine->SetTargets(trace.targets);
    dists.assign(num_rows * width, kInfDistance);
    proven.assign(num_rows * width, -kInfDistance);
    std::vector<int32_t> handle(num_rows, -1);
    double bound = kInfDistance;
    for (size_t c = 0; c < trace.balls.size(); ++c) {
      if (trace.issuer_worst[c] >= bound) break;
      double obj = trace.issuer_worst[c];
      bool feasible = true;
      for (size_t r = 0; r < num_rows && feasible; ++r) {
        double* row = dists.data() + r * width;
        if (handle[r] < 0) {
          ++rows;
          if (grown) {
            handle[r] = engine->OpenRow(trace.sources[r], row);
          } else {
            handle[r] = 0;
            engine->SourceToTargets(trace.sources[r], bound, row);
          }
        }
        if (grown) {
          double* tags = proven.data() + r * width;
          wanted.clear();
          for (int32_t j : trace.balls[c]) {
            if (tags[j] < bound) wanted.push_back(j);
          }
          if (!wanted.empty()) {
            engine->GrowRow(handle[r], wanted, bound, row);
            for (int32_t j : wanted) tags[j] = bound;
          }
        }
        for (int32_t j : trace.balls[c]) {
          if (row[j] >= kInfDistance || row[j] > bound) {
            feasible = false;
            break;
          }
          obj = std::max(obj, row[j]);
        }
      }
      if (feasible && obj < bound) bound = obj;
    }
    benchmark::DoNotOptimize(bound);
  }
  state.counters["settles_per_row"] =
      rows > 0 ? static_cast<double>(engine->vertices_settled() -
                                     settled_before) /
                     static_cast<double>(rows)
               : 0.0;
  state.SetLabel(grown ? "grown rows" : "full rows");
}
BENCHMARK(BM_DijkstraRefineRows)->Arg(0)->Arg(1);

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

// The same scoring through the library's dense kernel (UserSimilarity, 4
// lanes), as the oracle and the auditor call it; Lemma 8's box test runs
// the same Dot.
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

// One user scored against kSocialRows users through the run kernels the
// query path calls, at d = 100 with 2-4 topics per user (DESIGN.md §3):
// arg 0 merges two runs (RunSimilarity: Corollary 2, the ESU pair test),
// arg 1 reads a dense row at a run's topics (InterestScore: Lemma 3).
void BM_SocialScoreRun(benchmark::State& state) {
  constexpr int kTopics = 100;
  Rng rng(29);
  SocialNetworkBuilder builder(kTopics);
  std::vector<double> w(kTopics);
  for (int i = 0; i < kSocialRows; ++i) {
    std::fill(w.begin(), w.end(), 0.0);
    const int held = static_cast<int>(rng.UniformInt(2, 4));
    for (int k = 0; k < held; ++k) {
      w[rng.NextBounded(kTopics)] = rng.UniformDouble(0.05, 1.0);
    }
    GPSSN_CHECK_OK(builder.AddUser(w).status());
  }
  const SocialNetwork g = builder.Build();
  const std::span<const double> q_row = g.Interests(0);
  const InterestRun q_run = g.Run(0);
  const bool dense_issuer = state.range(0) == 1;
  std::vector<double> out(kSocialRows);
  for (auto _ : state) {
    for (int i = 0; i < kSocialRows; ++i) {
      out[i] = dense_issuer
                   ? InterestScore(q_row, g.Run(i))
                   : RunSimilarity(InterestMetric::kDotProduct, q_run,
                                   g.Run(i), kTopics);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kSocialRows);
  state.SetLabel(dense_issuer ? "dense x run" : "run x run");
}
BENCHMARK(BM_SocialScoreRun)->Arg(0)->Arg(1);

// ESU extension probe, sparse-path shape: walk a candidate's CSR friend
// list and test candidate membership and seen-ness through std::vector<bool>
// over the user id space (what EnumerateGroups' SparseView does per
// extension step, core/refinement.cc).
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
// one AND-NOT + popcount per word (EnumerateGroups' ScratchView sweeps
// adjacency ∧ active ∧ ¬seen a word at a time).
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

// Corollary 2 over a query-shaped candidate set: the users that pass the
// issuer's interest test, as Gather leaves them. Reports the candidates
// and the pair scores computed afresh per run.
void RunCorollary2(benchmark::State& state, bool memo) {
  const int d = static_cast<int>(state.range(0));
  const SocialNetwork& g = SharedSocialDim(512, d);
  GpssnQuery q;
  q.issuer = 0;
  q.tau = 5;
  q.gamma = 0.25;
  std::vector<UserId> cands;
  const InterestRun issuer = g.Run(q.issuer);
  for (UserId u = 0; u < g.num_users(); ++u) {
    if (u == q.issuer ||
        RunSimilarity(q.metric, issuer, g.Run(u), d) >= q.gamma) {
      cands.push_back(u);
    }
  }
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
  state.counters["candidates"] = static_cast<double>(cands.size());
  state.counters["pairs_scored"] =
      static_cast<double>(stats.interest_pairs_scored) /
      static_cast<double>(state.iterations());
}

void BM_Corollary2MemoOff(benchmark::State& state) {
  RunCorollary2(state, /*memo=*/false);
}
BENCHMARK(BM_Corollary2MemoOff)->Arg(8)->Arg(32)->Arg(128);

void BM_Corollary2MemoOn(benchmark::State& state) {
  RunCorollary2(state, /*memo=*/true);
}
BENCHMARK(BM_Corollary2MemoOn)->Arg(8)->Arg(32)->Arg(128);

// ----- Simulated I/O -----

// UNI x0.2's layout: I_S holds 179 nodes, two to a page, on pages
// [0, 90) and 6,000 user records, four to a page, after them; I_R holds
// its nodes on pages [0, 21) of its range and 2,000 POI records, 50 to a
// page, on [21, 61).
constexpr uint32_t kUniSocialPages = 1590;
constexpr uint32_t kUniSocialNodePages = 90;
constexpr uint32_t kUniPoiPages = 61;
constexpr uint32_t kUniPoiNodePages = 21;

// One uni-ch query's page trace, in the order Gather and Refine read:
// every I_S node (2 per page, breadth first), one user record per
// candidate user in leaf order (3,680 users at random, since records lie
// in id order), the I_R descent (6 inner nodes, then 64 leaves with 25
// POI records each), 6,900 ball members and 20 members' records. A real
// uni-ch query reads about 11.3k pages and misses 34% of them through a
// 64-page pool, 97% of its user records.
std::vector<PageId> QueryShapedTrace() {
  Rng rng(19);
  std::vector<PageId> trace;
  for (PageId page = 0; page < kUniSocialNodePages; ++page) {
    trace.insert(trace.end(), {page, page});
  }
  auto poi_page = [&] {
    return kPoiIndexFirstPage + kUniPoiNodePages +
           static_cast<PageId>(
               rng.NextBounded(kUniPoiPages - kUniPoiNodePages));
  };
  auto poi_node_page = [&] {
    return kPoiIndexFirstPage +
           static_cast<PageId>(rng.NextBounded(kUniPoiNodePages));
  };
  std::vector<PageId> users(3680);
  for (PageId& page : users) {
    page = kUniSocialNodePages +
           static_cast<PageId>(
               rng.NextBounded(kUniSocialPages - kUniSocialNodePages));
  }
  trace.insert(trace.end(), users.begin(), users.end());
  for (int i = 0; i < 6; ++i) trace.push_back(poi_node_page());
  for (int leaf = 0; leaf < 64; ++leaf) {
    trace.push_back(poi_node_page());
    for (int i = 0; i < 25; ++i) trace.push_back(poi_page());
  }
  for (int i = 0; i < 6900; ++i) trace.push_back(poi_page());
  for (int i = 0; i < 20; ++i) {
    trace.push_back(users[rng.NextBounded(users.size())]);
  }
  return trace;
}

// Replays the query-shaped trace through a pool built as a query builds
// its own: the default 64 pages over UNI x0.2's page counts.
void BM_BufferPoolAccess(benchmark::State& state) {
  const std::vector<PageId> trace = QueryShapedTrace();
  IoStats stats;
  for (auto _ : state) {
    BufferPool pool(QueryOptions().buffer_pool_pages, kUniSocialPages,
                    kUniPoiPages);
    for (PageId page : trace) pool.Access(page);
    stats = pool.stats();
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
  state.counters["miss_ratio"] = static_cast<double>(stats.page_misses) /
                                 static_cast<double>(stats.logical_accesses);
}
BENCHMARK(BM_BufferPoolAccess);

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
