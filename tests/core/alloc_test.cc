// Heap-allocation regression tests for the query hot path. This binary
// replaces the global operator new / delete with counting versions, armed
// only inside the measured regions:
//   - a BufferPool allocates nothing after construction;
//   - a warm GpssnProcessor::Execute allocates per query and per emitted
//     group, never per page access, candidate center or ESU step;
//   - a warm ServingCluster::Query allocates its groups once, not once per
//     shard that refines them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/pagestore.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/query.h"
#include "serving/coordinator.h"
#include "ssn/dataset.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};

}  // namespace

// gcc flags free() on memory from operator new once it inlines these
// replacements into a caller; they are a matched malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_counting.load()) g_allocations.fetch_add(1);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace gpssn {
namespace {

// Counts the allocations `fn` makes.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(AllocationTest, CounterSeesAVectorGrow) {
  const int64_t n = CountAllocations([] {
    std::vector<int> v(16);
    v.resize(64);
  });
  EXPECT_EQ(n, 2);
}

TEST(AllocationTest, BufferPoolNeverAllocatesAfterConstruction) {
  BufferPool pool(64, /*social_pages=*/96, /*poi_pages=*/96);
  // A fixed trace over 96 pages with a hot set, so hits, MRU hits and
  // evictions all occur; it runs over I_S's pages and then over I_R's.
  std::vector<PageId> trace(100000);
  Rng rng(5);
  for (PageId& page : trace) {
    page = static_cast<PageId>(rng.NextBounded(2) == 0 ? rng.NextBounded(32)
                                                       : rng.NextBounded(96));
  }
  const int64_t n = CountAllocations([&] {
    for (PageId page : trace) pool.Access(page);
    for (PageId page : trace) pool.Access(kPoiIndexFirstPage + page);
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(pool.stats().page_misses, 64u);
  EXPECT_LT(pool.stats().page_misses, pool.stats().logical_accesses);
}

// C, the allocations of one warm Execute beyond one per emitted group:
// the query's own vectors (the plan's candidate lists and buffer pool, the
// Corollary 2 and ESU arrays, the answer), several of them grown a few
// times. Measured at 70–78 over the queries below (gcc 12, libstdc++,
// x86-64); the bound leaves room for another standard library.
// Before the buffer pool moved to flat arrays, Refine built keyword unions
// as masks and the ESU stacked its extension sets in place, the same
// queries made 3109–3781 allocations against 244–251 page misses.
constexpr int64_t kPerQueryAllocations = 90;

// The network and queries of the warm-query cases.
GpssnDatabase MakeDatabase() {
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

std::vector<GpssnQuery> WarmQueries() {
  std::vector<GpssnQuery> queries;
  for (UserId issuer = 0; issuer < 200; issuer += 10) {
    GpssnQuery query;
    query.issuer = issuer;
    query.tau = 3;
    query.gamma = 0.2;
    query.theta = 0.3;
    query.radius = 2.0;
    queries.push_back(query);
  }
  return queries;
}

TEST(AllocationTest, WarmQueryAllocatesPerQueryAndPerGroupOnly) {
#ifdef GPSSN_AUDIT
  GTEST_SKIP() << "the audit build's default pruning auditor allocates";
#endif
  const GpssnDatabase db = MakeDatabase();
  GpssnProcessor processor(&db.poi_index(), &db.social_index());

  int queries_with_groups = 0;
  for (const GpssnQuery& query : WarmQueries()) {
    QueryOptions options;
    QueryStats stats;
    // Warm the processor's scratch on this query first.
    ASSERT_TRUE(processor.Execute(query, options, &stats).ok());
    bool ok = false;
    const int64_t allocations = CountAllocations(
        [&] { ok = processor.Execute(query, options, &stats).ok(); });
    ASSERT_TRUE(ok);
    const int64_t groups = static_cast<int64_t>(stats.groups_enumerated);
    if (groups > 0) ++queries_with_groups;
    EXPECT_LE(allocations, groups + kPerQueryAllocations)
        << "issuer " << query.issuer << ", " << stats.io.page_misses
        << " page misses";
  }
  EXPECT_GT(queries_with_groups, 0);
}

// C for one warm ServingCluster::Query on 2 shards, the allocations beyond
// one per emitted group: the coordinator's query state, requests, replies,
// the pool's task per stage and the mailbox nodes, the plan's candidate
// list, and each stage's Gather and Refine vectors; they grow with the
// shards, not the groups. Measured at 125–147 over the queries below
// (gcc 12, libstdc++, x86-64), and at 122–144 when each shard ran its own
// threads, without a task per stage. When each refine request carried its
// own encoded copy of the group list, the same queries made 157–399, about
// four more per group.
constexpr int64_t kPerClusterQueryAllocations = 155;

TEST(AllocationTest, WarmClusterQueryAllocatesItsGroupsOnce) {
#ifdef GPSSN_AUDIT
  GTEST_SKIP() << "the audit build's default pruning auditor allocates";
#endif
  const GpssnDatabase db = MakeDatabase();
  serving::ServingOptions options;
  options.num_shards = 2;
  options.shard_num_workers = 1;
  auto cluster = serving::ServingCluster::Create(db, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // Any pool worker may run any shard's stage, so warm every worker's
  // processor on every (query, shard) stage, then warm the coordinator's
  // pool path with one pass.
  const std::vector<GpssnQuery> queries = WarmQueries();
  (*cluster)->WarmWorkers(queries);
  for (const GpssnQuery& query : queries) {
    ASSERT_TRUE((*cluster)->Query(query).ok());
  }
  int queries_with_groups = 0;
  for (const GpssnQuery& query : queries) {
    QueryStats stats;
    bool ok = false;
    const int64_t allocations = CountAllocations(
        [&] { ok = (*cluster)->Query(query, &stats).ok(); });
    ASSERT_TRUE(ok);
    const int64_t groups = static_cast<int64_t>(stats.groups_enumerated);
    if (groups > 0) ++queries_with_groups;
    EXPECT_LE(allocations, groups + kPerClusterQueryAllocations)
        << "issuer " << query.issuer << ", " << stats.refined_shards
        << " refined shards";
  }
  EXPECT_GT(queries_with_groups, 0);
}

}  // namespace
}  // namespace gpssn
