// Tests for dynamic POI insertion: after any sequence of inserts, the
// incrementally maintained index must be equivalent to an index built from
// scratch over the grown network, and queries must match the brute-force
// oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/baseline.h"
#include "core/database.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/distance_backend.h"
#include "roadnet/distance_cache.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SyntheticSsnOptions SmallData(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 250;
  data.num_pois = 80;
  data.num_users = 150;
  data.num_topics = 15;
  data.space_size = 20.0;
  data.seed = seed;
  return data;
}

TEST(DynamicPoiTest, InsertRejectsBadArguments) {
  SpatialSocialNetwork ssn = MakeSynthetic(SmallData(1));
  EXPECT_TRUE(ssn.AddPoi({-1, 0.5}, {0}).status().IsInvalidArgument());
  EXPECT_TRUE(ssn.AddPoi({0, 1.5}, {0}).status().IsInvalidArgument());
  EXPECT_TRUE(ssn.AddPoi({0, 0.5}, {999}).status().IsInvalidArgument());
  auto ok = ssn.AddPoi({0, 0.5}, {3, 1, 3});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 80);
  // Keywords were deduplicated and sorted.
  EXPECT_EQ(ssn.poi(*ok).keywords, (std::vector<KeywordId>{1, 3}));
  EXPECT_TRUE(ssn.Validate().ok());
}

TEST(DynamicPoiTest, DatabaseRejectsNaNOffset) {
  GpssnDatabase db(MakeSynthetic(SmallData(1)));
  const int num_pois = db.ssn().num_pois();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db.AddPoi({0, nan}, {1}).status().IsInvalidArgument());
  EXPECT_EQ(db.ssn().num_pois(), num_pois);
  EXPECT_EQ(db.poi_index().tree().size(), num_pois);
  EXPECT_TRUE(db.ssn().Validate().ok());
}

TEST(DynamicPoiTest, IncrementalIndexMatchesFreshRebuild) {
  SpatialSocialNetwork ssn = MakeSynthetic(SmallData(2));
  RoadPivotTable pivots(ssn.road(), RandomRoadPivots(ssn.road(), 3, 5));
  PoiIndexOptions options;
  options.r_min = 0.5;
  options.r_max = 3.0;
  PoiIndex incremental(&ssn, &pivots, options);

  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const EdgePosition pos{
        static_cast<EdgeId>(rng.NextBounded(ssn.road().num_edges())),
        rng.UniformDouble()};
    std::vector<KeywordId> kws = {
        static_cast<KeywordId>(rng.NextBounded(15)),
        static_cast<KeywordId>(rng.NextBounded(15))};
    auto id = ssn.AddPoi(pos, std::move(kws));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(incremental.InsertPoi(*id).ok());
  }

  // A from-scratch index over the grown network must agree on every
  // deterministic augmentation (samples are random and excluded).
  PoiIndex fresh(&ssn, &pivots, options);
  ASSERT_EQ(ssn.num_pois(), 92);
  for (PoiId id = 0; id < ssn.num_pois(); ++id) {
    const PoiAug& a = incremental.poi_aug(id);
    const PoiAug& b = fresh.poi_aug(id);
    EXPECT_EQ(a.sup_keywords, b.sup_keywords) << "poi " << id;
    EXPECT_EQ(a.sub_keywords, b.sub_keywords) << "poi " << id;
    // The stored B(o, r_max) tables agree exactly: ids, distances, order.
    EXPECT_EQ(a.ball, b.ball) << "poi " << id;
    ASSERT_EQ(a.pivot_dist.size(), b.pivot_dist.size());
    for (size_t k = 0; k < a.pivot_dist.size(); ++k) {
      EXPECT_NEAR(a.pivot_dist[k], b.pivot_dist[k], 1e-9);
    }
    // The incremental bit vector may carry extra bits from superseded
    // states, but must cover the exact sup set.
    for (KeywordId kw : b.sup_keywords) {
      EXPECT_TRUE(a.v_sup.MayContain(kw));
    }
  }
  EXPECT_TRUE(incremental.tree().CheckInvariants());
  EXPECT_EQ(incremental.tree().size(), ssn.num_pois());
  EXPECT_EQ(incremental.node_aug(incremental.tree().root()).subtree_pois,
            ssn.num_pois());
}

TEST(DynamicPoiTest, InsertPoiRejectsWrongId) {
  SpatialSocialNetwork ssn = MakeSynthetic(SmallData(3));
  RoadPivotTable pivots(ssn.road(), RandomRoadPivots(ssn.road(), 2, 5));
  PoiIndexOptions options;
  PoiIndex index(&ssn, &pivots, options);
  EXPECT_TRUE(index.InsertPoi(5).IsInvalidArgument());     // Already present.
  EXPECT_TRUE(index.InsertPoi(80).IsInvalidArgument());    // Not in network.
}

TEST(DynamicPoiTest, DatabaseQueriesStayExactAfterInserts) {
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(4)), build);

  GpssnQuery q;
  q.issuer = 11;
  q.tau = 3;
  q.gamma = 0.25;
  q.theta = 0.25;
  q.radius = 2.0;

  Rng rng(9);
  for (int round = 0; round < 4; ++round) {
    // Open a couple of new facilities.
    for (int i = 0; i < 3; ++i) {
      const EdgePosition pos{
          static_cast<EdgeId>(rng.NextBounded(db.ssn().road().num_edges())),
          rng.UniformDouble()};
      auto id = db.AddPoi(pos, {static_cast<KeywordId>(rng.NextBounded(15))});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    auto got = db.Query(q);
    ASSERT_TRUE(got.ok());
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
    ASSERT_EQ(got->found, oracle.found) << "round " << round;
    if (oracle.found) {
      EXPECT_NEAR(got->max_dist, oracle.max_dist, 1e-9) << "round " << round;
    }
  }
}

TEST(DynamicPoiTest, SharedCacheSurvivesUnrelatedAddPoi) {
  // Regression: AddPoi used to Clear() the whole shared DistanceCache, so
  // every batch worker recomputed every row after ANY insert. Invalidation
  // is now generation-tagged per POI column: a row cached before an AddPoi
  // must still serve the POIs the insert did not touch, and only a row
  // that includes the new POI misses.
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.distance_cache_entries = 1 << 16;
  GpssnDatabase db(MakeSynthetic(SmallData(6)), build);
  DistanceCache* cache = db.distance_cache();
  ASSERT_NE(cache, nullptr);

  GpssnQuery q;
  q.issuer = 11;
  q.tau = 3;
  q.gamma = 0.2;
  q.theta = 0.2;
  q.radius = 2.5;
  // The first run caches the row of every member of its answer.
  auto first = db.Query(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->found) << "no answer, so no member rows to check";
  ASSERT_GT(cache->GetStats().insertions, 0u)
      << "workload never touched the cache; the checks below are vacuous";

  // Open a facility somewhere; the existing columns must keep serving.
  Rng rng(13);
  const EdgePosition pos{
      static_cast<EdgeId>(rng.NextBounded(db.ssn().road().num_edges())),
      rng.UniformDouble()};
  auto id = db.AddPoi(pos, {1});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_GT(cache->GetStats().entries, 0u)
      << "AddPoi wiped the cache wholesale";

  // Each member still row-hits the answer's ball at its objective, with
  // the distances a fresh search reports; adding the new POI (the largest
  // id, so the row still ascends) makes the same row miss.
  const SpatialSocialNetwork& ssn = db.ssn();
  const auto backend = MakeDijkstraBackend(&ssn.road(), &ssn.pois());
  const auto engine = backend->CreateEngine();
  std::vector<EdgePosition> targets;
  for (PoiId o : first->pois) targets.push_back(ssn.poi(o).position);
  engine->SetTargets(targets);
  std::vector<PoiId> with_new = first->pois;
  with_new.push_back(*id);
  for (UserId u : first->users) {
    std::vector<double> cached(first->pois.size());
    ASSERT_TRUE(
        cache->LookupRow(u, first->pois, first->max_dist, cached.data()))
        << "user " << u << ": row did not survive the unrelated AddPoi";
    std::vector<double> fresh(first->pois.size());
    engine->SourceToTargets(ssn.user_home(u), first->max_dist, fresh.data());
    EXPECT_EQ(cached, fresh) << "user " << u;
    std::vector<double> wider(with_new.size());
    EXPECT_FALSE(
        cache->LookupRow(u, with_new, first->max_dist, wider.data()))
        << "user " << u << ": a row with the new POI cannot be cached yet";
  }

  // And the answers stay exact over the grown network.
  QueryStats stats;
  auto got = db.Query(q, QueryOptions(), &stats);
  ASSERT_TRUE(got.ok());
  const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
  ASSERT_EQ(got->found, oracle.found);
  if (oracle.found) {
    EXPECT_NEAR(got->max_dist, oracle.max_dist, 1e-9);
  }
}

TEST(DynamicPoiTest, NewPoiCanBecomeTheAnswer) {
  GpssnBuildOptions build;
  build.num_road_pivots = 2;
  build.num_social_pivots = 2;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(5)), build);
  GpssnQuery q;
  q.issuer = 7;
  q.tau = 1;  // Only the issuer: the answer is their best-matching ball.
  q.gamma = 0.0;
  q.theta = 0.0;
  q.radius = 1.0;
  auto before = db.Query(q);
  ASSERT_TRUE(before.ok());
  // Open a facility right on the issuer's home edge.
  const EdgePosition home = db.ssn().user_home(q.issuer);
  auto id = db.AddPoi(home, {0});
  ASSERT_TRUE(id.ok());
  auto after = db.Query(q);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->found);
  EXPECT_LE(after->max_dist, before->found ? before->max_dist : kInfDistance);
  EXPECT_NEAR(after->max_dist, 0.0, 1e-6);  // The new POI sits at home.
}

// A query charges I_S and I_R pages to one buffer pool, so no page id may
// belong to both: I_S node and user pages lie below kPoiIndexFirstPage and
// I_R node and POI pages at or above it, after the build and after AddPoi
// lays out I_R again.
TEST(DynamicPoiTest, SocialAndPoiIndexPagesAreDisjoint) {
  GpssnBuildOptions build;
  build.num_road_pivots = 2;
  build.num_social_pivots = 2;
  build.social_index.leaf_cell_size = 16;
  GpssnDatabase db(MakeSynthetic(SmallData(8)), build);
  auto social_pages = [&] {
    const SocialIndex& index = db.social_index();
    std::set<PageId> pages;
    for (SNodeId id = 0; id < index.num_nodes(); ++id) {
      pages.insert(index.node(id).page);
    }
    for (UserId u = 0; u < db.ssn().num_users(); ++u) {
      pages.insert(index.user_page(u));
    }
    return pages;
  };
  auto poi_pages = [&] {
    const PoiIndex& index = db.poi_index();
    std::set<PageId> pages;
    std::vector<RNodeId> queue = {index.tree().root()};
    for (size_t head = 0; head < queue.size(); ++head) {
      const RTreeNode& node = index.tree().node(queue[head]);
      pages.insert(index.node_aug(queue[head]).page);
      if (node.is_leaf()) continue;
      for (const RTreeEntry& e : node.entries) queue.push_back(e.id);
    }
    for (PoiId id = 0; id < db.ssn().num_pois(); ++id) {
      pages.insert(index.poi_page(id));
    }
    return pages;
  };
  auto expect_disjoint = [&](const std::string& when) {
    const std::set<PageId> social = social_pages();
    const std::set<PageId> road = poi_pages();
    EXPECT_LT(*social.rbegin(), kPoiIndexFirstPage) << when;
    EXPECT_GE(*road.begin(), kPoiIndexFirstPage) << when;
    std::vector<PageId> shared;
    std::set_intersection(social.begin(), social.end(), road.begin(),
                          road.end(), std::back_inserter(shared));
    EXPECT_TRUE(shared.empty())
        << when << ": " << shared.size() << " pages in both indexes";
  };
  expect_disjoint("after the build");
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    const EdgePosition pos{
        static_cast<EdgeId>(rng.NextBounded(db.ssn().road().num_edges())),
        rng.UniformDouble()};
    ASSERT_TRUE(db.AddPoi(pos, {static_cast<KeywordId>(i)}).ok());
    expect_disjoint("after AddPoi " + std::to_string(i));
  }
}

}  // namespace
}  // namespace gpssn
