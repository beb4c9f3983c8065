// Backend differential harness: on 20 randomized synthetic networks, the
// full GP-SSN query path must return the SAME answer — (S, R, objective) —
// under every distance configuration: built-in Dijkstra, the CH sweep
// backend, and each of those with the shared distance cache enabled (both
// cold and warm, which exercises the bound-tag reuse path). The center and
// user/POI sets must match exactly; the objective to 1e-9 (CH shortcut
// weights sum in a different floating-point association order). A replay
// over a warm cache must open no search at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/database.h"
#include "core/pruning.h"
#include "core/refinement.h"
#include "roadnet/distance_backend.h"
#include "roadnet/distance_cache.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

class BackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

void ExpectSameAnswer(const GpssnAnswer& want, const GpssnAnswer& got,
                      const char* label, uint64_t seed, int trial) {
  ASSERT_EQ(want.found, got.found)
      << label << " seed=" << seed << " trial=" << trial;
  if (!want.found) return;
  EXPECT_EQ(want.users, got.users)
      << label << " seed=" << seed << " trial=" << trial;
  EXPECT_EQ(want.center, got.center)
      << label << " seed=" << seed << " trial=" << trial;
  EXPECT_EQ(want.pois, got.pois)
      << label << " seed=" << seed << " trial=" << trial;
  EXPECT_NEAR(want.max_dist, got.max_dist, 1e-9)
      << label << " seed=" << seed << " trial=" << trial;
}

TEST_P(BackendDifferentialTest, AllBackendsAgreeOnAnswers) {
  Rng rng(GetParam() * 9176 + 7);

  SyntheticSsnOptions data;
  data.num_road_vertices = 120 + static_cast<int>(rng.NextBounded(120));
  data.num_pois = 40 + static_cast<int>(rng.NextBounded(40));
  data.num_users = 60 + static_cast<int>(rng.NextBounded(60));
  data.num_topics = 8 + static_cast<int>(rng.NextBounded(8));
  data.space_size = 12.0 + rng.UniformDouble(0, 6);
  data.distribution =
      rng.Bernoulli(0.5) ? Distribution::kUniform : Distribution::kZipf;
  data.seed = rng.Next();

  GpssnBuildOptions build;
  build.num_road_pivots = 1 + static_cast<int>(rng.NextBounded(4));
  build.num_social_pivots = 1 + static_cast<int>(rng.NextBounded(4));
  build.optimize_pivots = rng.Bernoulli(0.5);
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.seed = rng.Next();

  GpssnDatabase db(MakeSynthetic(data), build);
  const auto ch_backend =
      MakeChBackend(&db.ssn().road(), &db.ssn().pois());
  DistanceCache dijkstra_cache;
  DistanceCache ch_cache;

  for (int trial = 0; trial < 4; ++trial) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.5);
    q.theta = rng.UniformDouble(0.05, 0.6);
    q.radius = rng.UniformDouble(0.4, 4.0);

    QueryOptions base;
    auto reference = db.Query(q, base);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    QueryOptions with_ch;
    with_ch.distance_backend = ch_backend.get();
    auto ch_answer = db.Query(q, with_ch);
    ASSERT_TRUE(ch_answer.ok()) << ch_answer.status().ToString();
    ExpectSameAnswer(*reference, *ch_answer, "ch", GetParam(), trial);

    // Cached runs, twice each: the first fills the cache (cold), the
    // second reuses rows computed under the FIRST run's bounds (warm),
    // exercising the bound-tag soundness logic end to end.
    QueryOptions with_cache = base;
    with_cache.distance_cache = &dijkstra_cache;
    for (int pass = 0; pass < 2; ++pass) {
      QueryStats stats;
      auto cached = db.Query(q, with_cache, &stats);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      ExpectSameAnswer(*reference, *cached,
                       pass == 0 ? "dijkstra+cache cold" : "dijkstra+cache warm",
                       GetParam(), trial);
    }

    QueryOptions ch_with_cache = with_ch;
    ch_with_cache.distance_cache = &ch_cache;
    for (int pass = 0; pass < 2; ++pass) {
      auto cached = db.Query(q, ch_with_cache);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      ExpectSameAnswer(*reference, *cached,
                       pass == 0 ? "ch+cache cold" : "ch+cache warm",
                       GetParam(), trial);
    }
  }
}

TEST(BackendDatabaseTest, DatabaseLevelChAndCacheProduceSameAnswers) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 150;
  data.num_pois = 50;
  data.num_users = 70;
  data.seed = 33;

  GpssnBuildOptions plain;
  plain.poi_index.r_min = 0.3;
  plain.poi_index.r_max = 4.5;
  GpssnDatabase reference_db(MakeSynthetic(data), plain);

  GpssnBuildOptions accelerated = plain;
  accelerated.distance_backend = DistanceBackendKind::kContractionHierarchy;
  accelerated.distance_cache_entries = 1u << 16;
  GpssnDatabase fast_db(MakeSynthetic(data), accelerated);
  ASSERT_NE(fast_db.distance_backend(), nullptr);
  ASSERT_NE(fast_db.distance_cache(), nullptr);

  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    GpssnQuery q;
    q.issuer =
        static_cast<UserId>(rng.NextBounded(reference_db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.5);
    q.radius = rng.UniformDouble(0.5, 4.0);
    auto want = reference_db.Query(q);
    auto got = fast_db.Query(q);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameAnswer(*want, *got, "db-level", 33, trial);
  }
  // The warm cache must have produced row hits by now on repeat issuers.
  EXPECT_GT(fast_db.distance_cache()->GetStats().insertions, 0u);
}

// A cache holds one engine's rows, and CH and Dijkstra distances may
// differ in the last bit: a query on a caller's backend must neither read
// nor fill the database's cache, so its answers equal a cache-less run.
TEST(BackendDatabaseTest, CallerBackendNeverUsesTheDatabaseCache) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 150;
  data.num_pois = 50;
  data.num_users = 70;
  data.seed = 34;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.distance_cache_entries = 1u << 16;
  GpssnDatabase db(MakeSynthetic(data), build);
  ASSERT_EQ(db.distance_backend(), nullptr);
  const DistanceCache* cache = db.distance_cache();
  ASSERT_NE(cache, nullptr);
  const auto ch_backend = MakeChBackend(&db.ssn().road(), &db.ssn().pois());
  GpssnProcessor uncached(&db.poi_index(), &db.social_index());
  QueryOptions with_ch;
  with_ch.distance_backend = ch_backend.get();

  Rng rng(8);
  std::vector<GpssnQuery> answered;
  for (int trial = 0; trial < 6; ++trial) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.5);
    q.radius = rng.UniformDouble(0.5, 4.0);
    // Dijkstra rows for this query's users go into the database's cache.
    ASSERT_TRUE(db.Query(q).ok());
    const DistanceCache::Stats before = cache->GetStats();

    QueryStats stats;
    auto got = db.Query(q, with_ch, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const DistanceCache::Stats after = cache->GetStats();
    EXPECT_EQ(after.hits, before.hits) << "trial " << trial;
    EXPECT_EQ(after.misses, before.misses) << "trial " << trial;
    EXPECT_EQ(after.insertions, before.insertions) << "trial " << trial;
    EXPECT_EQ(after.entries, before.entries) << "trial " << trial;
    EXPECT_EQ(stats.dist_cache_row_hits + stats.dist_cache_row_misses, 0u);

    auto want = uncached.Execute(q, with_ch);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(want->found, got->found) << "trial " << trial;
    if (!want->found) continue;
    answered.push_back(q);
    EXPECT_EQ(want->users, got->users) << "trial " << trial;
    EXPECT_EQ(want->center, got->center) << "trial " << trial;
    EXPECT_EQ(want->pois, got->pois) << "trial " << trial;
    EXPECT_EQ(want->max_dist, got->max_dist) << "trial " << trial;
  }
  ASSERT_FALSE(answered.empty()) << "no answer, so no rows were compared";
  EXPECT_GT(cache->GetStats().insertions, 0u);

  // A cache the caller brings with its backend is still used.
  DistanceCache ch_cache;
  QueryOptions ch_with_cache = with_ch;
  ch_with_cache.distance_cache = &ch_cache;
  const DistanceCache::Stats before = cache->GetStats();
  ASSERT_TRUE(db.Query(answered.front(), ch_with_cache).ok());
  EXPECT_GT(ch_cache.GetStats().insertions, 0u);
  EXPECT_EQ(cache->GetStats().misses, before.misses);
}

// True when two answers agree byte for byte, the objective's bits too.
bool SameBytes(const GpssnAnswer& a, const GpssnAnswer& b) {
  return a.found == b.found && a.users == b.users && a.center == b.center &&
         a.pois == b.pois &&
         std::bit_cast<uint64_t>(a.max_dist) ==
             std::bit_cast<uint64_t>(b.max_dist);
}

// A Refine stores each grown row with what every entry proved, so a replay
// of the same queries reads every entry at a bound some stored item
// already decides: the second serial pass and a 4-worker batch over the
// same list open no search. A 2-shard cluster reads under its
// coordinator's incumbents and may search. Every path answers byte for
// byte as the first pass did. The cache is large enough that nothing is
// evicted.
TEST(BackendDatabaseTest, CacheReplayOpensNoSearch) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 400;
  data.num_pois = 160;
  data.num_users = 240;
  data.num_topics = 10;
  data.seed = 43;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.distance_cache_entries = 1u << 22;
  GpssnDatabase db(MakeSynthetic(data), build);
  ASSERT_EQ(db.distance_backend(), nullptr);  // Dijkstra rows.
  const DistanceCache* cache = db.distance_cache();
  ASSERT_NE(cache, nullptr);

  Rng rng(44);
  const InterestMetric metrics[] = {InterestMetric::kDotProduct,
                                    InterestMetric::kJaccard,
                                    InterestMetric::kHamming};
  std::vector<GpssnQuery> queries;
  for (int i = 0; i < 30; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(3));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.5);
    q.radius = rng.UniformDouble(0.4, 4.0);
    q.metric = metrics[i % 3];
    queries.push_back(q);
  }

  // One serial pass: Query, then QueryTopK(3), per query.
  struct Pass {
    std::vector<GpssnAnswer> answers;
    std::vector<std::vector<GpssnAnswer>> top;
    uint64_t searches = 0;
  };
  auto serial_pass = [&](Pass* pass) {
    for (const GpssnQuery& q : queries) {
      QueryStats stats;
      auto answer = db.Query(q, &stats);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      pass->answers.push_back(*answer);
      pass->searches += stats.exact_distance_evals;
      QueryStats top_stats;
      auto top = db.QueryTopK(q, 3, QueryOptions(), &top_stats);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      pass->top.push_back(*top);
      pass->searches += top_stats.exact_distance_evals;
    }
  };
  Pass first;
  serial_pass(&first);
  int found = 0;
  for (const GpssnAnswer& a : first.answers) found += a.found;
  ASSERT_GT(found, 5) << "too few answers for the replay to read rows";
  ASSERT_GT(first.searches, 0u);

  Pass second;
  serial_pass(&second);
  EXPECT_EQ(second.searches, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameBytes(first.answers[i], second.answers[i])) << i;
    ASSERT_EQ(first.top[i].size(), second.top[i].size()) << i;
    for (size_t k = 0; k < first.top[i].size(); ++k) {
      EXPECT_TRUE(SameBytes(first.top[i][k], second.top[i][k]))
          << i << " rank " << k;
    }
  }

  BatchExecutorOptions batch;
  batch.num_workers = 4;
  const std::vector<BatchQueryResult> batched = db.QueryBatch(queries, batch);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    EXPECT_EQ(batched[i].stats.exact_distance_evals, 0u) << i;
    EXPECT_TRUE(SameBytes(first.answers[i], batched[i].answer)) << i;
  }

  serving::ServingOptions serving;
  serving.num_shards = 2;
  auto cluster = serving::ServingCluster::Create(db, serving);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::vector<BatchQueryResult> served =
      (*cluster)->QueryBatch(queries);
  ASSERT_EQ(served.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(served[i].status.ok()) << served[i].status.ToString();
    EXPECT_TRUE(SameBytes(first.answers[i], served[i].answer)) << i;
  }
  EXPECT_EQ(cache->GetStats().evictions, 0u);
}

// Refine materializes candidates in (key, id) order and none past the
// first key that fails Lemma 7: on CH without a cache in batches, on the
// built-in Dijkstra engine in one. Over a seeded mix of Query, QueryTopK(3)
// and RefineCandidates under the single-node objective as its incumbent,
// on a CH database:
//   - every answer's objective is the oracle's, and every top-3 list is
//     the one-batch run's (the built-in Dijkstra engine) up to ties;
//   - RefineCandidates over the gathered candidates and planned groups
//     returns an answer that ties the single-node objective, bit for bit,
//     on either engine;
//   - whenever the answer ranks below the last candidate key, fewer balls
//     materialize (ball_queries) than candidates reached Refine.
TEST(LazyRefineTest, MaterializesOnlyTheCentersItCanVisit) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 500;
  data.num_pois = 240;
  data.num_users = 160;
  data.num_topics = 8;
  data.space_size = 30.0;
  data.seed = 71;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.3;
  build.poi_index.r_max = 4.5;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  GpssnDatabase db(MakeSynthetic(data), build);
  ASSERT_NE(db.distance_backend(), nullptr);
  const QueryOptions ch = db.WithDatabaseDefaults(QueryOptions());
  GpssnProcessor lazy(&db.poi_index(), &db.social_index());
  GpssnProcessor one_batch(&db.poi_index(), &db.social_index());
  ShardScope whole;
  whole.social_roots = {db.social_index().root()};
  whole.road_roots = {db.poi_index().tree().root()};
  SocialScratch social_scratch;

  Rng rng(72);
  int fewer = 0;    // Runs whose answer ranks below the last key.
  int refined = 0;  // RefineCandidates answers checked.
  for (int trial = 0; trial < 40; ++trial) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db.ssn().num_users()));
    q.tau = 2 + static_cast<int>(rng.NextBounded(2));
    q.gamma = rng.UniformDouble(0.05, 0.4);
    q.theta = rng.UniformDouble(0.05, 0.4);
    q.radius = rng.UniformDouble(0.5, 4.0);
    const std::string label = "trial " + std::to_string(trial);

    // The candidates that reach Refine, and the largest of their keys.
    auto gathered = lazy.GatherCandidates(q, ch, whole);
    ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
    double last_key = -kInfDistance;
    for (PoiId c : gathered->pois) {
      last_key = std::max(
          last_key,
          LbRoadPivotDist(db.social_index().user_road_pivot_dists(q.issuer),
                          db.poi_index().pivot_dists(c)));
    }
    auto expect_lazy = [&](const QueryStats& stats, double objective,
                           uint64_t candidates, const char* what) {
      EXPECT_LE(stats.ball_queries, candidates) << label << " " << what;
      if (objective < last_key) {
        EXPECT_LT(stats.ball_queries, candidates) << label << " " << what;
        ++fewer;
      }
    };

    QueryStats stats;
    auto answer = lazy.Execute(q, ch, &stats);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
    ASSERT_EQ(answer->found, oracle.found) << label;
    if (answer->found) {
      EXPECT_NEAR(answer->max_dist, oracle.max_dist, 1e-9) << label;
    }
    expect_lazy(stats, answer->max_dist, stats.pois_candidates, "query");

    QueryStats top_stats;
    auto top = lazy.ExecuteTopK(q, 3, ch, &top_stats);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    auto eager_top = one_batch.ExecuteTopK(q, 3, QueryOptions());
    ASSERT_TRUE(eager_top.ok()) << eager_top.status().ToString();
    ASSERT_EQ(top->size(), eager_top->size()) << label;
    for (size_t k = 0; k < top->size(); ++k) {
      EXPECT_NEAR((*top)[k].max_dist, (*eager_top)[k].max_dist, 1e-9)
          << label << " rank " << k;
    }
    expect_lazy(top_stats,
                top->size() == 3 ? top->back().max_dist : kInfDistance,
                top_stats.pois_candidates, "top-3");

    if (!answer->found) continue;
    std::vector<UserId> users = gathered->users;
    if (std::find(users.begin(), users.end(), q.issuer) == users.end()) {
      users.push_back(q.issuer);
    }
    std::vector<std::vector<UserId>> groups;
    QueryStats plan_stats;
    PlanGroups(db.ssn().social(), q, ch, &social_scratch, &users, &groups,
               &plan_stats);
    QueryStats refine_stats;
    auto shard = lazy.RefineCandidates(q, ch, gathered->pois, groups,
                                       answer->max_dist, &refine_stats);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_TRUE(shard->answer.found) << label;
    EXPECT_EQ(shard->answer.max_dist, answer->max_dist) << label;
    expect_lazy(refine_stats, answer->max_dist, gathered->pois.size(),
                "refine");
    ASSERT_FALSE(eager_top->empty()) << label;
    const double dijkstra_best = eager_top->front().max_dist;
    QueryStats dijkstra_stats;
    auto dijkstra_shard =
        one_batch.RefineCandidates(q, QueryOptions(), gathered->pois, groups,
                                   dijkstra_best, &dijkstra_stats);
    ASSERT_TRUE(dijkstra_shard.ok()) << dijkstra_shard.status().ToString();
    ASSERT_TRUE(dijkstra_shard->answer.found) << label;
    EXPECT_EQ(dijkstra_shard->answer.max_dist, dijkstra_best) << label;
    expect_lazy(dijkstra_stats, dijkstra_best, gathered->pois.size(),
                "dijkstra refine");
    ++refined;
  }
  EXPECT_GT(fewer, 10);
  EXPECT_GT(refined, 10);
}

// 20 random networks × 4 queries × 6 configurations.
INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace gpssn
