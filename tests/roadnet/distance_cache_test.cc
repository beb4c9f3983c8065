// Unit and concurrency tests for the shared cross-query distance cache:
// bound-tag semantics (an "unreachable within b" item must not serve a
// request with a larger bound), finite-over-inf upgrade policy, a seeded
// model test of whole rows against a per-(user, POI) reference, LRU
// eviction of whole rows under the item budget, and a multithreaded hammer
// that the TSAN preset runs to prove the striped locking is race-free.

#include "roadnet/distance_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gpssn {
namespace {

// The single-pair tests read and write one-item rows.
bool Lookup(DistanceCache& cache, UserId user, PoiId poi, double bound,
            double* dist) {
  return cache.LookupRow(user, std::span<const PoiId>(&poi, 1), bound, dist);
}

void Insert(DistanceCache& cache, UserId user, PoiId poi, double bound,
            double dist) {
  cache.InsertRow(user, std::span<const PoiId>(&poi, 1), bound, &dist);
}

// `n` distinct POI ids below `universe`, ascending.
std::vector<PoiId> RandomRow(Rng* rng, int universe, int n) {
  std::vector<PoiId> all(static_cast<size_t>(universe));
  for (int i = 0; i < universe; ++i) all[static_cast<size_t>(i)] = i;
  rng->Shuffle(&all);
  all.resize(static_cast<size_t>(n));
  std::sort(all.begin(), all.end());
  return all;
}

TEST(DistanceCacheTest, FiniteEntryServesAnyBound) {
  DistanceCache cache;
  Insert(cache, 1, 2, /*bound=*/10.0, /*dist=*/4.0);
  double d = 0.0;
  // Exact distance, reusable under any bound.
  ASSERT_TRUE(Lookup(cache, 1, 2, 10.0, &d));
  EXPECT_EQ(d, 4.0);
  ASSERT_TRUE(Lookup(cache, 1, 2, 100.0, &d));
  EXPECT_EQ(d, 4.0);
  // Under a smaller bound the exact value proves "beyond the bound".
  ASSERT_TRUE(Lookup(cache, 1, 2, 3.0, &d));
  EXPECT_EQ(d, kInfDistance);
}

TEST(DistanceCacheTest, InfEntryOnlyServesSmallerOrEqualBounds) {
  DistanceCache cache;
  Insert(cache, 1, 2, /*bound=*/5.0, kInfDistance);  // dist > 5.
  double d = 0.0;
  ASSERT_TRUE(Lookup(cache, 1, 2, 5.0, &d));
  EXPECT_EQ(d, kInfDistance);
  ASSERT_TRUE(Lookup(cache, 1, 2, 2.0, &d));
  EXPECT_EQ(d, kInfDistance);
  // A larger bound cannot be answered: the distance might be 6.
  EXPECT_FALSE(Lookup(cache, 1, 2, 8.0, &d));
}

TEST(DistanceCacheTest, FiniteWinsOverInfAndLargerInfBoundWins) {
  DistanceCache cache;
  Insert(cache, 1, 2, 5.0, kInfDistance);
  Insert(cache, 1, 2, 7.0, kInfDistance);  // Stronger proof: dist > 7.
  double d = 0.0;
  ASSERT_TRUE(Lookup(cache, 1, 2, 6.0, &d));
  EXPECT_EQ(d, kInfDistance);
  // A later exact result upgrades the entry permanently.
  Insert(cache, 1, 2, 20.0, 9.5);
  ASSERT_TRUE(Lookup(cache, 1, 2, 100.0, &d));
  EXPECT_EQ(d, 9.5);
  // An inf insert must NOT downgrade a finite entry.
  Insert(cache, 1, 2, 3.0, kInfDistance);
  ASSERT_TRUE(Lookup(cache, 1, 2, 100.0, &d));
  EXPECT_EQ(d, 9.5);
}

TEST(DistanceCacheTest, DistinctKeysDoNotCollide) {
  DistanceCache cache;
  Insert(cache, 1, 2, 10.0, 1.0);
  Insert(cache, 2, 1, 10.0, 2.0);
  double d = 0.0;
  ASSERT_TRUE(Lookup(cache, 1, 2, 10.0, &d));
  EXPECT_EQ(d, 1.0);
  ASSERT_TRUE(Lookup(cache, 2, 1, 10.0, &d));
  EXPECT_EQ(d, 2.0);
  EXPECT_FALSE(Lookup(cache, 3, 3, 10.0, &d));
}

TEST(DistanceCacheTest, EvictsLeastRecentlyUsedWithinBudget) {
  DistanceCacheOptions options;
  options.max_entries = 64;
  options.num_shards = 1;  // Single shard: deterministic LRU order.
  DistanceCache cache(options);
  for (UserId u = 0; u < 200; ++u) {
    Insert(cache, u, 0, 10.0, static_cast<double>(u));
  }
  const auto stats = cache.GetStats();
  EXPECT_LE(stats.entries, options.max_entries);
  EXPECT_GT(stats.evictions, 0u);
  double d = 0.0;
  // The most recent insert survives; the oldest was evicted.
  EXPECT_TRUE(Lookup(cache, 199, 0, 10.0, &d));
  EXPECT_FALSE(Lookup(cache, 0, 0, 10.0, &d));
}

TEST(DistanceCacheTest, LookupRefreshesRecency) {
  DistanceCacheOptions options;
  options.max_entries = 4;
  options.num_shards = 1;
  DistanceCache cache(options);
  for (UserId u = 0; u < 4; ++u) Insert(cache, u, 0, 10.0, 1.0);
  double d = 0.0;
  ASSERT_TRUE(Lookup(cache, 0, 0, 10.0, &d));  // 0 becomes most recent.
  Insert(cache, 50, 0, 10.0, 1.0);             // Evicts 1, not 0.
  EXPECT_TRUE(Lookup(cache, 0, 0, 10.0, &d));
  EXPECT_FALSE(Lookup(cache, 1, 0, 10.0, &d));
}

TEST(DistanceCacheTest, ClearDropsEverythingAndKeepsCounters) {
  DistanceCache cache;
  Insert(cache, 1, 1, 10.0, 1.0);
  double d = 0.0;
  ASSERT_TRUE(Lookup(cache, 1, 1, 10.0, &d));
  cache.Clear();
  EXPECT_FALSE(Lookup(cache, 1, 1, 10.0, &d));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(DistanceCacheTest, RowServesAnySubsetOfItsMergedItems) {
  DistanceCache cache;
  const std::vector<PoiId> first = {2, 5, 9};
  const std::vector<PoiId> second = {1, 5, 12};
  const double first_dists[] = {2.0, 5.0, 9.0};
  const double second_dists[] = {1.0, 5.0, 12.0};
  cache.InsertRow(4, first, 20.0, first_dists);
  cache.InsertRow(4, second, 20.0, second_dists);
  EXPECT_EQ(cache.GetStats().entries, 5u);
  EXPECT_EQ(cache.GetStats().insertions, 5u);
  const std::vector<PoiId> across = {1, 2, 9, 12};
  double out[4] = {};
  ASSERT_TRUE(cache.LookupRow(4, across, 20.0, out));
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_EQ(out[2], 9.0);
  EXPECT_EQ(out[3], 12.0);
  // One uncached POI misses the whole row; an empty row hits.
  const std::vector<PoiId> wider = {1, 2, 3};
  EXPECT_FALSE(cache.LookupRow(4, wider, 20.0, out));
  EXPECT_TRUE(cache.LookupRow(4, {}, 20.0, out));
  EXPECT_TRUE(cache.LookupRow(99, {}, 20.0, out));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DistanceCacheTest, RowsMatchPerItemReferenceModel) {
  // Random InsertRow / LookupRow sequences under a budget that never
  // evicts, checked against a per-(user, POI) reference of the item rules.
  // A row must hit exactly when every item would, and a hit must return
  // the reference's values bit for bit.
  constexpr int kUsers = 24;
  // Wide enough that rows stay sparse and bound-tag misses keep coming.
  constexpr int kPois = 480;
  DistanceCacheOptions options;
  options.max_entries = 1 << 16;
  DistanceCache cache(options);

  struct RefItem {
    double dist;
    double bound;
  };
  std::map<std::pair<UserId, PoiId>, RefItem> ref;
  std::vector<std::vector<PoiId>> last_row(kUsers);
  const double bounds[] = {0.5, 2.0, 4.0, 6.0, 9.0, kInfDistance};
  auto true_dist = [](UserId u, PoiId o) {
    return static_cast<double>((u * 37 + o * 11) % 97) / 10.0 + 0.05;
  };

  Rng rng(20260417);
  int hits = 0;
  int misses = 0;
  for (int step = 0; step < 20000; ++step) {
    const UserId u = static_cast<UserId>(rng.NextBounded(kUsers));
    const double bound = bounds[rng.NextBounded(std::size(bounds))];
    const uint64_t op = rng.NextBounded(10);
    std::vector<PoiId> row;
    if (op <= 4 || last_row[u].empty()) {
      row = RandomRow(&rng, kPois, static_cast<int>(rng.NextBounded(11)));
    } else {
      // A subset of the user's last inserted row: lookups that can hit.
      for (PoiId o : last_row[u]) {
        if (rng.Bernoulli(0.7)) row.push_back(o);
      }
    }
    if (op <= 4) {
      std::vector<double> dists;
      for (PoiId o : row) {
        const double t = true_dist(u, o);
        dists.push_back(t <= bound ? t : kInfDistance);
      }
      cache.InsertRow(u, row, bound, dists.data());
      last_row[u] = row;
      for (size_t i = 0; i < row.size(); ++i) {
        const auto key = std::make_pair(u, row[i]);
        auto it = ref.find(key);
        if (it == ref.end()) {
          ref[key] = {dists[i], bound};
        } else if (std::isfinite(dists[i])) {
          it->second.dist = dists[i];
          it->second.bound = bound;
        } else if (!std::isfinite(it->second.dist) &&
                   bound > it->second.bound) {
          it->second.bound = bound;
        }
      }
    } else {
      bool want_hit = true;
      std::vector<double> want;
      for (PoiId o : row) {
        auto it = ref.find({u, o});
        if (it == ref.end() ||
            (!std::isfinite(it->second.dist) && it->second.bound < bound)) {
          want_hit = false;
          break;
        }
        want.push_back(it->second.dist <= bound ? it->second.dist
                                                : kInfDistance);
      }
      std::vector<double> out(row.size(), -1.0);
      const bool got = cache.LookupRow(u, row, bound, out.data());
      ASSERT_EQ(got, want_hit) << "step " << step << " user " << u;
      if (!got) {
        ++misses;
        continue;
      }
      ++hits;
      for (size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "step " << step << " user " << u << " poi " << row[i];
      }
    }
  }
  // Both outcomes were exercised, and the budget never evicted.
  EXPECT_GT(hits, 1000);
  EXPECT_GT(misses, 1000);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(hits));
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(misses));
}

TEST(DistanceCacheTest, EvictsWholeLeastRecentlyUsedRows) {
  DistanceCacheOptions options;
  options.max_entries = 10;
  options.num_shards = 1;  // Single shard: deterministic LRU order.
  DistanceCache cache(options);
  const double dists[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto insert = [&](UserId u, const std::vector<PoiId>& pois) {
    cache.InsertRow(u, pois, 10.0, dists);
    ASSERT_LE(cache.GetStats().entries, options.max_entries);
  };
  auto hits = [&](UserId u, const std::vector<PoiId>& pois) {
    double out[6];
    const bool hit = cache.LookupRow(u, pois, 10.0, out);
    EXPECT_LE(cache.GetStats().entries, options.max_entries);
    return hit;
  };
  insert(0, {1, 2, 3});
  insert(1, {1, 2, 3});
  insert(2, {1, 2, 3});
  insert(3, {4, 5, 6});  // 12 > 10 items: user 0's whole row goes.
  EXPECT_EQ(cache.GetStats().entries, 9u);
  EXPECT_EQ(cache.GetStats().evictions, 3u);
  EXPECT_FALSE(hits(0, {1}));
  EXPECT_FALSE(hits(0, {3}));
  EXPECT_TRUE(hits(2, {1, 2, 3}));
  EXPECT_TRUE(hits(3, {4, 5, 6}));
  EXPECT_TRUE(hits(1, {2}));  // LRU order now 1, 3, 2 (most recent first).
  insert(4, {7, 8});          // 11 > 10: evicts user 2, not 1.
  EXPECT_FALSE(hits(2, {1}));
  EXPECT_TRUE(hits(1, {1, 2, 3}));
  // A growing row evicts other rows, never itself: order is 1, 4, 3.
  insert(4, {1, 2, 3, 9});  // User 4: 6 items, total 12 > 10: user 3 goes.
  EXPECT_TRUE(hits(4, {1, 2, 3, 7, 8, 9}));
  EXPECT_FALSE(hits(3, {4}));
  EXPECT_TRUE(hits(1, {1, 2, 3}));
  EXPECT_EQ(cache.GetStats().entries, 9u);
  EXPECT_EQ(cache.GetStats().evictions, 9u);
}

TEST(DistanceCacheTest, BudgetHoldsWhenShardsDoNotDivideIt) {
  // 100 items over 16 shards: the shares are 7 and 6 and sum to 100, so
  // the cache can never hold more than the budget (a ⌈100/16⌉ share per
  // shard could hold 112).
  DistanceCacheOptions options;
  options.max_entries = 100;
  options.num_shards = 16;
  DistanceCache cache(options);
  Rng rng(7);
  size_t peak = 0;
  for (int step = 0; step < 4000; ++step) {
    const UserId u = static_cast<UserId>(rng.NextBounded(400));
    const std::vector<PoiId> row =
        RandomRow(&rng, 32, 1 + static_cast<int>(rng.NextBounded(7)));
    const std::vector<double> dists(row.size(), 1.0);
    if (rng.Bernoulli(0.5)) {
      cache.InsertRow(u, row, 10.0, dists.data());
    } else {
      std::vector<double> out(row.size());
      cache.LookupRow(u, row, 10.0, out.data());
    }
    const size_t entries = cache.GetStats().entries;
    ASSERT_LE(entries, options.max_entries) << "step " << step;
    peak = std::max(peak, entries);
  }
  EXPECT_GT(peak, 80u);  // The budget was actually under pressure.
  EXPECT_GT(cache.GetStats().evictions, 0u);
}

TEST(DistanceCacheTest, RowWiderThanShardBudgetIsNotCached) {
  DistanceCacheOptions options;
  options.max_entries = 32;
  options.num_shards = 4;  // 8 items per shard.
  DistanceCache cache(options);
  const std::vector<PoiId> wide = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> dists(wide.size(), 1.0);
  std::vector<double> out(wide.size());
  cache.InsertRow(5, wide, 10.0, dists.data());
  EXPECT_FALSE(cache.LookupRow(5, wide, 10.0, out.data()));
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().insertions, 0u);
  // A row that would outgrow the share leaves the cached row as it was.
  const std::vector<PoiId> low = {0, 1, 2, 3, 4};
  const std::vector<PoiId> high = {10, 11, 12, 13, 14};
  cache.InsertRow(5, low, 10.0, dists.data());
  cache.InsertRow(5, high, 10.0, dists.data());
  EXPECT_TRUE(cache.LookupRow(5, low, 10.0, out.data()));
  EXPECT_FALSE(cache.LookupRow(5, high, 10.0, out.data()));
  EXPECT_EQ(cache.GetStats().entries, 5u);
}

TEST(DistanceCacheTest, ConcurrentHammerKeepsEntriesConsistent) {
  // 8 threads × overlapping users and multi-POI rows. Every thread
  // inserts the canonical value f(u, o) and checks that any hit returns
  // exactly those values — never a torn or foreign value. The budget is
  // small enough that whole rows are evicted too.
  DistanceCacheOptions options;
  options.max_entries = 1024;
  options.num_shards = 8;
  DistanceCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kUsers = 96;
  constexpr int kPois = 64;
  constexpr int kIters = 4000;
  auto canonical = [](UserId u, PoiId o) {
    return static_cast<double>(u * 31 + o * 7 + 1);
  };
  std::vector<std::thread> threads;
  std::atomic<int> violations{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(0x9e3779b9u + static_cast<uint64_t>(t));
      std::vector<double> dists;
      std::vector<double> out;
      for (int i = 0; i < kIters; ++i) {
        const UserId u = static_cast<UserId>(rng.NextBounded(kUsers));
        const std::vector<PoiId> row =
            RandomRow(&rng, kPois, 1 + static_cast<int>(rng.NextBounded(8)));
        switch (rng.NextBounded(3)) {
          case 0:
            dists.clear();
            for (PoiId o : row) dists.push_back(canonical(u, o));
            cache.InsertRow(u, row, /*bound=*/1e9, dists.data());
            break;
          case 1:
            // A weaker inf proof; must never clobber a finite value.
            dists.assign(row.size(), kInfDistance);
            cache.InsertRow(u, row, /*bound=*/0.5, dists.data());
            break;
          default:
            out.assign(row.size(), -1.0);
            if (cache.LookupRow(u, row, 1e9, out.data())) {
              for (size_t k = 0; k < row.size(); ++k) {
                if (out[k] != canonical(u, row[k])) ++violations;
              }
            }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  const auto stats = cache.GetStats();
  EXPECT_LE(stats.entries, options.max_entries);
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace gpssn
