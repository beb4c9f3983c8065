// Kernel-level equivalence tests for the pluggable distance backends: the
// CH sweep engine must agree with the reference bounded Dijkstra on
// one-to-many (SourceToTargets) and ball queries, on random road-like
// networks. Finite distances match to 1e-9 (CH shortcut weights sum in a
// different floating-point association order). The CH rows must also keep
// the two properties sharded refinement relies on, bit for bit: a finite
// entry does not depend on the row's bound, and a target's entry does not
// depend on which other targets are registered with it. Grown rows
// (OpenRow/GrowRow), on both engines, must read what SourceToTargets reads
// under each read's bound, bit for bit, and every proof must hold.

#include "roadnet/distance_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "roadnet/road_generator.h"
#include "roadnet/shortest_path.h"

namespace gpssn {
namespace {

std::vector<Poi> RandomPois(const RoadNetwork& g, int n, Rng* rng) {
  std::vector<Poi> pois(n);
  for (int i = 0; i < n; ++i) {
    pois[i].id = i;
    pois[i].position =
        EdgePosition{static_cast<EdgeId>(rng->NextBounded(g.num_edges())),
                     rng->UniformDouble()};
    pois[i].location = g.PositionPoint(pois[i].position);
  }
  return pois;
}

EdgePosition RandomPosition(const RoadNetwork& g, Rng* rng) {
  return EdgePosition{static_cast<EdgeId>(rng->NextBounded(g.num_edges())),
                      rng->UniformDouble()};
}

// `a` from the Dijkstra reference, `b` from CH, computed under `bound`.
// A distance within float noise of the bound may legitimately land on
// opposite sides of the cut in the two engines.
void ExpectEquivalent(double a, double b, double bound) {
  if (std::isfinite(a) != std::isfinite(b)) {
    const double finite = std::isfinite(a) ? a : b;
    ASSERT_NEAR(finite, bound, 1e-9);
    return;
  }
  if (std::isfinite(a)) {
    ASSERT_NEAR(a, b, 1e-9);
  }
}

// True when two doubles have the same bits.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Both engines over one random network with `num_targets` random targets.
// Held by pointer, since the backends keep the network's and the POIs'
// addresses; members are destroyed in reverse, engines first.
struct EnginePair {
  RoadNetwork graph;
  std::vector<Poi> pois;
  std::unique_ptr<DistanceBackend> dij_backend;
  std::unique_ptr<DistanceBackend> ch_backend;
  std::unique_ptr<DistanceEngine> dij;
  std::unique_ptr<DistanceEngine> ch;
  std::vector<EdgePosition> targets;
};

std::unique_ptr<EnginePair> MakeEnginePair(uint64_t seed, int num_targets,
                                           Rng* rng) {
  auto pair = std::make_unique<EnginePair>();
  RoadGenOptions gen;
  gen.num_vertices = 500;
  gen.seed = seed;
  pair->graph = GenerateRoadNetwork(gen);
  pair->pois = RandomPois(pair->graph, num_targets, rng);
  pair->dij_backend = MakeDijkstraBackend(&pair->graph, &pair->pois);
  pair->ch_backend = MakeChBackend(&pair->graph, &pair->pois);
  pair->dij = pair->dij_backend->CreateEngine();
  pair->ch = pair->ch_backend->CreateEngine();
  for (const Poi& p : pair->pois) pair->targets.push_back(p.position);
  return pair;
}

class BackendEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalenceTest, SourceToTargetsMatchesDijkstra) {
  Rng rng(GetParam() * 77 + 3);
  const auto e = MakeEnginePair(GetParam(), 40, &rng);
  std::vector<EdgePosition> targets = e->targets;
  // A duplicate target position must fill both slots independently.
  targets.push_back(targets.front());
  e->dij->SetTargets(targets);
  e->ch->SetTargets(targets);

  std::vector<double> a(targets.size()), b(targets.size());
  for (int trial = 0; trial < 30; ++trial) {
    const EdgePosition src = RandomPosition(e->graph, &rng);
    const double bound =
        trial % 3 == 0 ? kInfDistance : rng.UniformDouble(0.5, 8.0);
    e->dij->SourceToTargets(src, bound, a.data());
    e->ch->SourceToTargets(src, bound, b.data());
    for (size_t i = 0; i < targets.size(); ++i) {
      ExpectEquivalent(a[i], b[i], bound);
    }
    // The duplicated slot mirrors the original.
    ASSERT_EQ(b.back(), b.front());
  }

  // Retargeting must fully replace the previous registration.
  const std::vector<EdgePosition> fewer(targets.begin(), targets.begin() + 5);
  e->dij->SetTargets(fewer);
  e->ch->SetTargets(fewer);
  const EdgePosition src = RandomPosition(e->graph, &rng);
  e->dij->SourceToTargets(src, kInfDistance, a.data());
  e->ch->SourceToTargets(src, kInfDistance, b.data());
  for (size_t i = 0; i < fewer.size(); ++i) {
    ExpectEquivalent(a[i], b[i], kInfDistance);
  }
}

TEST_P(BackendEquivalenceTest, BallsAreBitExactAcrossBackends) {
  // Both backends answer balls with the bounded Dijkstra, so the results
  // must be identical, not merely near.
  RoadGenOptions gen;
  gen.num_vertices = 400;
  gen.seed = GetParam() ^ 0xbeef;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() + 29);
  const std::vector<Poi> pois = RandomPois(g, 60, &rng);
  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  const auto dij = dij_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();
  for (int trial = 0; trial < 15; ++trial) {
    const EdgePosition center = RandomPosition(g, &rng);
    const double radius = rng.UniformDouble(0.3, 5.0);
    const auto a = dij->BallWithDistances(center, radius);
    const auto b = ch->BallWithDistances(center, radius);
    ASSERT_EQ(a, b) << "trial " << trial << " radius " << radius;
  }
}

TEST_P(BackendEquivalenceTest, FiniteChEntriesDoNotDependOnTheBound) {
  Rng rng(GetParam() * 31 + 5);
  const auto e = MakeEnginePair(GetParam(), 60, &rng);
  e->dij->SetTargets(e->targets);
  e->ch->SetTargets(e->targets);
  const size_t n = e->targets.size();
  std::vector<double> unbounded(n), bounded(n), want(n);
  for (int trial = 0; trial < 20; ++trial) {
    const EdgePosition src = RandomPosition(e->graph, &rng);
    e->ch->SourceToTargets(src, kInfDistance, unbounded.data());
    for (double b : {0.0, 0.5, 2.0, rng.UniformDouble(0.5, 8.0)}) {
      e->ch->SourceToTargets(src, b, bounded.data());
      e->dij->SourceToTargets(src, b, want.data());
      for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " bound "
                                        << b << " target " << i);
        if (unbounded[i] <= b) {
          ASSERT_TRUE(SameBits(bounded[i], unbounded[i]));
        } else {
          ASSERT_EQ(bounded[i], kInfDistance);
        }
        ExpectEquivalent(want[i], bounded[i], b);
      }
    }
  }
}

TEST_P(BackendEquivalenceTest, ChEntriesDoNotDependOnTheOtherTargets) {
  Rng rng(GetParam() * 13 + 1);
  const auto e = MakeEnginePair(GetParam(), 80, &rng);
  // Two disjoint registrations, as two shards holding different centers
  // would make, and their union.
  const std::vector<EdgePosition> first(e->targets.begin(),
                                        e->targets.begin() + 40);
  const std::vector<EdgePosition> second(e->targets.begin() + 40,
                                         e->targets.end());
  std::vector<EdgePosition> both = second;
  both.insert(both.end(), first.begin(), first.end());
  std::vector<EdgePosition> sources;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(RandomPosition(e->graph, &rng));
  }

  // Rows of `targets` from every source under `bound`, on a fresh CH engine
  // and on the shared one after whatever it registered before.
  const auto fresh = e->ch_backend->CreateEngine();
  auto rows = [&](DistanceEngine* engine,
                  const std::vector<EdgePosition>& targets, double bound) {
    engine->SetTargets(targets);
    std::vector<double> out(sources.size() * targets.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      engine->SourceToTargets(sources[s], bound,
                              out.data() + s * targets.size());
    }
    return out;
  };
  for (double bound : {kInfDistance, 3.0}) {
    const std::vector<double> alone = rows(fresh.get(), first, bound);
    const std::vector<double> inside = rows(e->ch.get(), both, bound);
    rows(e->ch.get(), second, bound);  // A disjoint registration first.
    const std::vector<double> after = rows(e->ch.get(), first, bound);
    const std::vector<double> want = rows(e->dij.get(), first, bound);
    for (size_t s = 0; s < sources.size(); ++s) {
      for (size_t j = 0; j < first.size(); ++j) {
        SCOPED_TRACE(testing::Message() << "bound " << bound << " source "
                                        << s << " target " << j);
        const double a = alone[s * first.size() + j];
        const double in_both =
            inside[s * both.size() + second.size() + j];
        ASSERT_TRUE(SameBits(a, in_both));
        ASSERT_TRUE(SameBits(a, after[s * first.size() + j]));
        ExpectEquivalent(want[s * first.size() + j], a, bound);
      }
    }
  }
}

TEST_P(BackendEquivalenceTest, SourceOnATargetsEdgeTakesTheEdge) {
  Rng rng(GetParam() * 7 + 11);
  const auto e = MakeEnginePair(GetParam(), 30, &rng);
  for (int trial = 0; trial < 20; ++trial) {
    // Two targets on the source's edge, on either side of it, among
    // targets elsewhere.
    const EdgePosition src = RandomPosition(e->graph, &rng);
    std::vector<EdgePosition> targets = e->targets;
    const EdgePosition left{src.edge, src.t * rng.UniformDouble()};
    const EdgePosition right{src.edge,
                             src.t + (1.0 - src.t) * rng.UniformDouble()};
    targets.insert(targets.begin() + trial % 7, left);
    targets.push_back(right);
    e->dij->SetTargets(targets);
    e->ch->SetTargets(targets);
    std::vector<double> a(targets.size()), b(targets.size());
    for (double bound : {kInfDistance, rng.UniformDouble(0.0, 1.0)}) {
      e->dij->SourceToTargets(src, bound, a.data());
      e->ch->SourceToTargets(src, bound, b.data());
      for (size_t i = 0; i < targets.size(); ++i) {
        ExpectEquivalent(a[i], b[i], bound);
      }
      for (const size_t i : {static_cast<size_t>(trial % 7),
                             targets.size() - 1}) {
        // No path between two points of one edge beats the edge itself.
        const double along = SameEdgeDistance(e->graph, src, targets[i]);
        ASSERT_TRUE(SameBits(b[i], along <= bound ? along : kInfDistance))
            << "trial " << trial << " target " << i;
      }
    }
  }
}

TEST_P(BackendEquivalenceTest, EmptyTargetSetWritesNothing) {
  Rng rng(GetParam() + 3);
  const auto e = MakeEnginePair(GetParam(), 20, &rng);
  for (DistanceEngine* engine : {e->dij.get(), e->ch.get()}) {
    engine->SetTargets(e->targets);
    engine->SetTargets({});
    double sentinel = -1.0;
    engine->SourceToTargets(RandomPosition(e->graph, &rng), kInfDistance,
                            &sentinel);
    ASSERT_EQ(sentinel, -1.0);
  }
  // A registration after the empty one serves full rows again.
  e->dij->SetTargets(e->targets);
  e->ch->SetTargets(e->targets);
  std::vector<double> a(e->targets.size()), b(e->targets.size());
  const EdgePosition src = RandomPosition(e->graph, &rng);
  e->dij->SourceToTargets(src, kInfDistance, a.data());
  e->ch->SourceToTargets(src, kInfDistance, b.data());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectEquivalent(a[i], b[i], kInfDistance);
  }
}

// A Dijkstra row stops once every target's edge endpoint has settled. Each
// entry must keep the bits a full bounded search reads for it, the
// same-edge shortcut and the bound's cut included.
TEST_P(BackendEquivalenceTest, DijkstraRowsKeepTheFullSearchBits) {
  Rng rng(GetParam() * 5 + 9);
  const auto e = MakeEnginePair(GetParam(), 12, &rng);
  e->dij->SetTargets(e->targets);
  DijkstraEngine full(&e->graph);
  std::vector<double> row(e->targets.size());
  for (int trial = 0; trial < 40; ++trial) {
    EdgePosition src = RandomPosition(e->graph, &rng);
    if (trial % 4 == 0) {  // A source on a target's edge.
      const size_t k = static_cast<size_t>(trial) % e->targets.size();
      src.edge = e->targets[k].edge;
    }
    const double bound =
        trial % 3 == 0 ? kInfDistance : rng.UniformDouble(0.5, 8.0);
    e->dij->SourceToTargets(src, bound, row.data());
    full.RunFromPosition(src, bound);
    for (size_t i = 0; i < e->targets.size(); ++i) {
      const EdgePosition& t = e->targets[i];
      const double d = std::min(full.DistanceToPosition(t),
                                SameEdgeDistance(e->graph, src, t));
      ASSERT_TRUE(SameBits(row[i], d <= bound ? d : kInfDistance))
          << "trial " << trial << " target " << i << ": " << row[i]
          << " vs " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(1, 7, 13, 21, 42));

// A grown row settles only as far as its reads need. On random graphs with
// integer weights 0-4, equal labels are common, and targets at edge ends
// and at quarter points make entries tie the bounds drawn from the
// distances themselves; fractional sources make sums round. Each engine
// grows interleaved rows, sources on a target's edge among them, over
// random target subsets (duplicate targets too) under a non-increasing
// bound sequence from kInfDistance. Every read must equal the bits of the
// same engine's SourceToTargets under its bound, every entry a row has
// decided must keep its proof against the full search (exact at or below
// its tag, the distance above it otherwise), every entry must keep the
// proof of the row's RowDecidedBound too, and no entry may drop below its
// distance.
class RowGrowthTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowGrowthTest, GrownRowsReadWhatFullRowsRead) {
  Rng rng(GetParam() ^ 0x6a0f);
  constexpr int kVertices = 100;
  RoadNetworkBuilder builder;
  for (int i = 0; i < kVertices; ++i) {
    builder.AddVertex({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)});
  }
  for (int i = 0; i < kVertices; ++i) {
    for (int j = i + 1; j < kVertices; ++j) {
      if (rng.UniformDouble() < 0.05) {
        ASSERT_TRUE(builder
                        .AddEdge(i, j, static_cast<double>(rng.NextBounded(5)))
                        .ok());
      }
    }
  }
  const RoadNetwork g = builder.Build();
  ASSERT_GT(g.num_edges(), 0);
  const std::vector<Poi> pois;
  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  auto position = [&](double t) {
    return EdgePosition{static_cast<EdgeId>(rng.NextBounded(g.num_edges())),
                        t};
  };
  const double quarter_points[] = {0.0, 0.25, 0.5, 1.0};

  std::vector<EdgePosition> targets;
  for (int i = 0; i < 40; ++i) {
    targets.push_back(position(i % 2 == 0 ? quarter_points[i / 2 % 4]
                                          : rng.UniformDouble()));
  }
  for (int i = 0; i < 4; ++i) targets.push_back(targets[i * 7]);  // Twins.
  const int n = static_cast<int>(targets.size());

  int reads = 0;
  int inf_reads = 0;
  int decided_finite = 0;
  for (const DistanceBackend* backend : {dij_backend.get(), ch_backend.get()}) {
    const auto engine = backend->CreateEngine();
    for (int round = 0; round < 12; ++round) {
      // Fresh registrations reuse the engine's pooled rows.
      engine->SetTargets(targets);
      constexpr int kRows = 3;
      struct OpenedRow {
        EdgePosition source;
        int32_t handle = -1;
        std::vector<double> dists;
        std::vector<double> tags;    // -inf until decided.
        std::vector<double> full;    // SourceToTargets under +inf.
        std::vector<double> bounds;  // Non-increasing, from +inf.
      };
      std::vector<OpenedRow> rows(kRows);
      for (int r = 0; r < kRows; ++r) {
        OpenedRow& row = rows[r];
        if ((round + r) % 3 == 0) {  // A source on a target's edge.
          row.source = targets[rng.NextBounded(n)];
          row.source.t = rng.Bernoulli(0.5) ? quarter_points[r]
                                            : rng.UniformDouble();
        } else {
          row.source = position(rng.Bernoulli(0.3) ? 1.0 : rng.UniformDouble());
        }
        row.full.resize(n);
        engine->SourceToTargets(row.source, kInfDistance, row.full.data());
        row.bounds.push_back(kInfDistance);
        std::vector<double> finite;
        for (double d : row.full) {
          if (std::isfinite(d)) finite.push_back(d);
        }
        for (int k = 0; k < 8 && !finite.empty(); ++k) {
          const double d = finite[rng.NextBounded(finite.size())];
          row.bounds.push_back(rng.Bernoulli(0.7) ? d : d + 0.5);
        }
        std::sort(row.bounds.begin() + 1, row.bounds.end(),
                  std::greater<>());
        row.dists.assign(n, kInfDistance);
        row.tags.assign(n, -kInfDistance);
        row.handle = engine->OpenRow(row.source, row.dists.data());
      }
      // The rows grow interleaved, each along its own bound sequence.
      std::vector<size_t> next(kRows, 0);
      std::vector<double> want(n);
      for (int step = 0; step < 40; ++step) {
        const int r = static_cast<int>(rng.NextBounded(kRows));
        OpenedRow& row = rows[r];
        const double bound = row.bounds[next[r]];
        if (next[r] + 1 < row.bounds.size() && rng.Bernoulli(0.4)) ++next[r];
        std::vector<int32_t> wanted;
        for (int k = 1 + static_cast<int>(rng.NextBounded(6)); k > 0; --k) {
          wanted.push_back(static_cast<int32_t>(rng.NextBounded(n)));
        }
        engine->GrowRow(row.handle, wanted, bound, row.dists.data());
        engine->SourceToTargets(row.source, bound, want.data());
        for (const int32_t j : wanted) {
          SCOPED_TRACE(testing::Message()
                       << "round " << round << " row " << r << " target "
                       << j << " bound " << bound);
          const double got =
              row.dists[j] <= bound ? row.dists[j] : kInfDistance;
          ASSERT_EQ(bits(got), bits(want[j]))
              << got << " vs " << want[j] << " (full " << row.full[j]
              << ")";
          row.tags[j] = std::max(row.tags[j], bound);
          ++reads;
          inf_reads += got == kInfDistance;
        }
        const double decided = engine->RowDecidedBound(row.handle);
        for (int j = 0; j < n; ++j) {
          SCOPED_TRACE(testing::Message() << "round " << round << " row "
                                          << r << " target " << j);
          ASSERT_GE(row.dists[j], row.full[j]);
          for (const double tag : {row.tags[j], decided}) {
            if (tag == -kInfDistance) continue;
            if (row.dists[j] <= tag) {
              ASSERT_EQ(bits(row.dists[j]), bits(row.full[j])) << tag;
            } else {
              ASSERT_GT(row.full[j], tag);
            }
          }
        }
        decided_finite += std::isfinite(decided);
      }
    }
  }
  // Both outcomes were read many times, and rows stopped short of their
  // whole reach.
  EXPECT_GT(reads - inf_reads, 500);
  EXPECT_GT(inf_reads, 200);
  EXPECT_GT(decided_finite, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowGrowthTest,
                         ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace gpssn
