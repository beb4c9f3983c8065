// Pins the paper's I/O metric: the page misses and logical accesses that a
// fixed query mix charges to the LRU buffer pool on a small fixed network.
// The counts depend only on which pages the queries read, in which order,
// and on the pool's exact LRU policy, so a pool that evicts a different
// page, or a layout that moves a record to another page, moves them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/pagestore.h"
#include "core/database.h"
#include "core/query.h"
#include "core/refinement.h"
#include "core/social_scratch.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

GpssnDatabase PinnedDatabase() {
  SyntheticSsnOptions data;
  data.num_road_vertices = 1500;
  data.num_pois = 600;
  data.num_users = 1500;
  data.num_topics = 15;
  data.space_size = 40.0;
  data.community_size = 100;
  data.seed = 11;
  GpssnBuildOptions build;
  build.num_road_pivots = 3;
  build.num_social_pivots = 3;
  build.social_index.leaf_cell_size = 16;
  build.poi_index.r_min = 0.5;
  build.poi_index.r_max = 4.0;
  build.seed = 11;
  return GpssnDatabase(MakeSynthetic(data), build);
}

GpssnQuery MakeQuery(UserId issuer, InterestMetric metric, double gamma) {
  GpssnQuery query;
  query.issuer = issuer;
  query.tau = 3;
  query.gamma = gamma;
  query.metric = metric;
  query.theta = 0.3;
  query.radius = 2.0;
  return query;
}

struct MixTotals {
  IoStats io;
  int answers = 0;  // Answers found, so Refine's reads are in the mix.
};

// The mix: dot-product, Jaccard and Hamming queries from eight issuers, one
// top-3 query, and one GatherCandidates + RefineCandidates pair over the
// whole index, each on a fresh pool of `pool_pages` pages.
MixTotals RunMix(const GpssnDatabase& db, uint32_t pool_pages) {
  GpssnProcessor processor(&db.poi_index(), &db.social_index());
  QueryOptions options;
  options.buffer_pool_pages = pool_pages;
  MixTotals totals;
  auto add = [&](const QueryStats& stats) {
    totals.io.logical_accesses += stats.io.logical_accesses;
    totals.io.page_misses += stats.io.page_misses;
  };
  QueryStats stats;
  for (UserId issuer = 0; issuer < 200; issuer += 25) {
    for (const GpssnQuery& query :
         {MakeQuery(issuer, InterestMetric::kDotProduct, 0.2),
          MakeQuery(issuer, InterestMetric::kJaccard, 0.1),
          MakeQuery(issuer, InterestMetric::kHamming, 0.7)}) {
      auto answer = processor.Execute(query, options, &stats);
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
      if (answer.ok() && answer->found) ++totals.answers;
      add(stats);
    }
  }

  const GpssnQuery top = MakeQuery(40, InterestMetric::kDotProduct, 0.2);
  auto answers = processor.ExecuteTopK(top, /*k=*/3, options, &stats);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  if (answers.ok()) totals.answers += static_cast<int>(answers->size());
  add(stats);

  const GpssnQuery staged = MakeQuery(60, InterestMetric::kDotProduct, 0.2);
  ShardScope whole;
  whole.social_roots = {db.social_index().root()};
  whole.road_roots = {db.poi_index().tree().root()};
  auto candidates = processor.GatherCandidates(staged, options, whole,
                                               &stats);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  if (!candidates.ok()) return totals;
  add(stats);
  std::vector<UserId> users = candidates->users;
  if (std::find(users.begin(), users.end(), staged.issuer) == users.end()) {
    users.push_back(staged.issuer);
  }
  SocialScratch scratch;
  std::vector<std::vector<UserId>> groups;
  QueryStats plan_stats;
  PlanGroups(db.ssn().social(), staged, options, &scratch, &users, &groups,
             &plan_stats);
  auto refined = processor.RefineCandidates(
      staged, options, candidates->pois, groups, kInfDistance, &stats);
  EXPECT_TRUE(refined.ok()) << refined.status().ToString();
  if (refined.ok() && refined->answer.found) ++totals.answers;
  add(stats);
  return totals;
}

// The pinned values are an exact LRU's: any pool that evicts the least
// recently used page must charge the same misses. Refine charges the POI
// records of the balls whose keyword union the issuer matches, not of
// every candidate ball, and one user record per member row it opens.
TEST(IoMetricTest, QueryMixChargesPinnedPageCounts) {
  const GpssnDatabase db = PinnedDatabase();
  const MixTotals pool64 = RunMix(db, QueryOptions().buffer_pool_pages);
  EXPECT_GT(pool64.answers, 0);
  EXPECT_EQ(pool64.io.logical_accesses, 155195u);
  EXPECT_EQ(pool64.io.page_misses, 6527u);
  // A small pool evicts far more often.
  const MixTotals pool8 = RunMix(db, 8);
  EXPECT_EQ(pool8.io.logical_accesses, pool64.io.logical_accesses);
  EXPECT_EQ(pool8.io.page_misses, 35794u);
  // With no pool, every access misses.
  const MixTotals pool0 = RunMix(db, 0);
  EXPECT_EQ(pool0.io.logical_accesses, pool64.io.logical_accesses);
  EXPECT_EQ(pool0.io.page_misses, pool0.io.logical_accesses);
}

}  // namespace
}  // namespace gpssn
