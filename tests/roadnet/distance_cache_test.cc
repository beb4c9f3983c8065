// Unit and concurrency tests for the shared cross-query distance cache:
// bound-tag semantics (an inf item tagged b decides reads up to b only,
// and a lookup hands every item back with its tag), finite-over-inf and
// larger-tag merges, a seeded model test of whole rows against a
// per-(user, POI) reference, LRU eviction of whole rows under the item
// budget, and a multithreaded hammer that the TSAN preset runs to prove
// the striped locking is race-free.

#include "roadnet/distance_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gpssn {
namespace {

// One item as a lookup reads it back.
struct Item {
  double dist = 0.0;
  double tag = 0.0;
};

// The single-pair tests read and write one-item rows. Lookup is false when
// the user has no item for `poi`.
bool Lookup(DistanceCache& cache, UserId user, PoiId poi, Item* item) {
  return cache.LookupRow(user, std::span<const PoiId>(&poi, 1), &item->dist,
                         &item->tag);
}

void Insert(DistanceCache& cache, UserId user, PoiId poi, double tag,
            double dist) {
  cache.InsertRow(user, std::span<const PoiId>(&poi, 1), &dist, &tag);
}

// What a read under `bound` makes of an item, as refinement judges it: the
// distance a search under `bound` reports, or nothing when the item does
// not decide the read.
std::optional<double> Decide(const Item& item, double bound) {
  if (std::isfinite(item.dist)) {
    return item.dist <= bound ? item.dist : kInfDistance;
  }
  if (item.tag >= bound) return kInfDistance;
  return std::nullopt;
}

// A row of `n` items, all tagged `tag`.
std::vector<double> Tags(size_t n, double tag) {
  return std::vector<double>(n, tag);
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
  Insert(cache, 1, 2, /*tag=*/10.0, /*dist=*/4.0);
  Item item;
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  // Exact distance: tagged +inf, it decides a read under any bound.
  EXPECT_EQ(item.dist, 4.0);
  EXPECT_EQ(item.tag, kInfDistance);
  EXPECT_EQ(Decide(item, 10.0), 4.0);
  EXPECT_EQ(Decide(item, 100.0), 4.0);
  // Under a smaller bound the exact value proves "beyond the bound".
  EXPECT_EQ(Decide(item, 3.0), kInfDistance);
}

TEST(DistanceCacheTest, InfEntryOnlyServesSmallerOrEqualBounds) {
  DistanceCache cache;
  Insert(cache, 1, 2, /*tag=*/5.0, kInfDistance);  // dist > 5.
  Item item;
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  EXPECT_EQ(item.dist, kInfDistance);
  EXPECT_EQ(item.tag, 5.0);
  EXPECT_EQ(Decide(item, 5.0), kInfDistance);
  EXPECT_EQ(Decide(item, 2.0), kInfDistance);
  // A larger bound is not decided: the distance might be 6.
  EXPECT_EQ(Decide(item, 8.0), std::nullopt);
}

TEST(DistanceCacheTest, FiniteWinsOverInfAndLargerInfBoundWins) {
  DistanceCache cache;
  Insert(cache, 1, 2, 5.0, kInfDistance);
  Insert(cache, 1, 2, 7.0, kInfDistance);  // Stronger proof: dist > 7.
  Insert(cache, 1, 2, 6.0, kInfDistance);  // A weaker one changes nothing.
  Item item;
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  EXPECT_EQ(item.tag, 7.0);
  EXPECT_EQ(Decide(item, 6.0), kInfDistance);
  // A later exact result upgrades the entry permanently.
  Insert(cache, 1, 2, 20.0, 9.5);
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  EXPECT_EQ(Decide(item, 100.0), 9.5);
  // An inf insert must NOT downgrade a finite entry, whatever its tag.
  Insert(cache, 1, 2, 3.0, kInfDistance);
  Insert(cache, 1, 2, kInfDistance, kInfDistance);
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  EXPECT_EQ(item.dist, 9.5);
  EXPECT_EQ(Decide(item, 100.0), 9.5);
  EXPECT_EQ(cache.GetStats().insertions, 1u);
}

TEST(DistanceCacheTest, ItemsThatProveNothingAreNotStored) {
  DistanceCache cache;
  const std::vector<PoiId> pois = {1, 4, 6};
  const double dists[] = {kInfDistance, 2.5, kInfDistance};
  const double tags[] = {-kInfDistance, -kInfDistance, 0.0};
  cache.InsertRow(3, pois, dists, tags);
  // The exact item and the "> 0" proof are kept; the undecided one is not.
  EXPECT_EQ(cache.GetStats().entries, 2u);
  EXPECT_EQ(cache.GetStats().insertions, 2u);
  Item item;
  EXPECT_FALSE(Lookup(cache, 3, 1, &item));
  EXPECT_EQ(item.dist, kInfDistance);
  EXPECT_EQ(item.tag, -kInfDistance);
  ASSERT_TRUE(Lookup(cache, 3, 6, &item));
  EXPECT_EQ(item.tag, 0.0);
  // A row of undecided items alone creates no entry.
  const double nothing[] = {-kInfDistance};
  const double inf[] = {kInfDistance};
  cache.InsertRow(8, std::span<const PoiId>(pois.data(), 1), inf, nothing);
  EXPECT_EQ(cache.GetStats().entries, 2u);
  EXPECT_FALSE(Lookup(cache, 8, 1, &item));
}

TEST(DistanceCacheTest, DistinctKeysDoNotCollide) {
  DistanceCache cache;
  Insert(cache, 1, 2, 10.0, 1.0);
  Insert(cache, 2, 1, 10.0, 2.0);
  Item item;
  ASSERT_TRUE(Lookup(cache, 1, 2, &item));
  EXPECT_EQ(item.dist, 1.0);
  ASSERT_TRUE(Lookup(cache, 2, 1, &item));
  EXPECT_EQ(item.dist, 2.0);
  EXPECT_FALSE(Lookup(cache, 3, 3, &item));
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
  Item item;
  // The most recent insert survives; the oldest was evicted.
  EXPECT_TRUE(Lookup(cache, 199, 0, &item));
  EXPECT_FALSE(Lookup(cache, 0, 0, &item));
}

TEST(DistanceCacheTest, LookupRefreshesRecency) {
  DistanceCacheOptions options;
  options.max_entries = 4;
  options.num_shards = 1;
  DistanceCache cache(options);
  for (UserId u = 0; u < 4; ++u) Insert(cache, u, 0, 10.0, 1.0);
  Item item;
  ASSERT_TRUE(Lookup(cache, 0, 0, &item));  // 0 becomes most recent.
  Insert(cache, 50, 0, 10.0, 1.0);          // Evicts 1, not 0.
  EXPECT_TRUE(Lookup(cache, 0, 0, &item));
  EXPECT_FALSE(Lookup(cache, 1, 0, &item));
}

TEST(DistanceCacheTest, ClearDropsEverythingAndKeepsCounters) {
  DistanceCache cache;
  Insert(cache, 1, 1, 10.0, 1.0);
  Item item;
  ASSERT_TRUE(Lookup(cache, 1, 1, &item));
  cache.Clear();
  EXPECT_FALSE(Lookup(cache, 1, 1, &item));
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
  cache.InsertRow(4, first, first_dists, Tags(3, 20.0).data());
  cache.InsertRow(4, second, second_dists, Tags(3, 20.0).data());
  EXPECT_EQ(cache.GetStats().entries, 5u);
  EXPECT_EQ(cache.GetStats().insertions, 5u);
  const std::vector<PoiId> across = {1, 2, 9, 12};
  double out[4] = {};
  double tags[4] = {};
  ASSERT_TRUE(cache.LookupRow(4, across, out, tags));
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_EQ(out[2], 9.0);
  EXPECT_EQ(out[3], 12.0);
  for (double tag : tags) EXPECT_EQ(tag, kInfDistance);
  // One uncached POI reads as proving nothing, and the lookup reports the
  // gap; an empty row finds everything.
  const std::vector<PoiId> wider = {1, 2, 3};
  EXPECT_FALSE(cache.LookupRow(4, wider, out, tags));
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_EQ(out[2], kInfDistance);
  EXPECT_EQ(tags[2], -kInfDistance);
  EXPECT_TRUE(cache.LookupRow(4, {}, out, tags));
  EXPECT_TRUE(cache.LookupRow(99, {}, out, tags));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(DistanceCacheTest, RowsMatchPerItemReferenceModel) {
  // Random InsertRow / LookupRow sequences under a budget that never
  // evicts, checked against a per-(user, POI) reference of the item rules.
  // Every item must read back with the reference's entry and tag bit for
  // bit, a missing one as kInfDistance tagged -kInfDistance, and a lookup
  // must report whether every item was there.
  constexpr int kUsers = 24;
  // Wide enough that rows stay sparse and missing items keep coming.
  constexpr int kPois = 480;
  DistanceCacheOptions options;
  options.max_entries = 1 << 16;
  DistanceCache cache(options);

  std::map<std::pair<UserId, PoiId>, Item> ref;
  std::vector<std::vector<PoiId>> last_row(kUsers);
  // Tags an insert may carry: -inf is an entry no search has decided.
  const double tags[] = {-kInfDistance, 0.5, 2.0, 4.0, 6.0, 9.0,
                         kInfDistance};
  auto true_dist = [](UserId u, PoiId o) {
    return static_cast<double>((u * 37 + o * 11) % 97) / 10.0 + 0.05;
  };
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };

  Rng rng(20260417);
  int full = 0;
  int partial = 0;
  int decided = 0;
  int undecided = 0;
  for (int step = 0; step < 20000; ++step) {
    const UserId u = static_cast<UserId>(rng.NextBounded(kUsers));
    const uint64_t op = rng.NextBounded(10);
    std::vector<PoiId> row;
    if (op <= 4 || last_row[u].empty()) {
      row = RandomRow(&rng, kPois, static_cast<int>(rng.NextBounded(11)));
    } else {
      // A subset of the user's last inserted row: lookups that can find
      // every item.
      for (PoiId o : last_row[u]) {
        if (rng.Bernoulli(0.7)) row.push_back(o);
      }
    }
    if (op <= 4) {
      // Each item decided under its own tag, as a grown row's are.
      std::vector<double> dists;
      std::vector<double> row_tags;
      for (PoiId o : row) {
        const double tag = tags[rng.NextBounded(std::size(tags))];
        const double t = true_dist(u, o);
        dists.push_back(t <= tag ? t : kInfDistance);
        row_tags.push_back(tag);
      }
      cache.InsertRow(u, row, dists.data(), row_tags.data());
      last_row[u] = row;
      for (size_t i = 0; i < row.size(); ++i) {
        const bool exact = std::isfinite(dists[i]);
        if (!exact && row_tags[i] == -kInfDistance) continue;
        const Item item{dists[i], exact ? kInfDistance : row_tags[i]};
        const auto key = std::make_pair(u, row[i]);
        auto it = ref.find(key);
        if (it == ref.end()) {
          ref[key] = item;
        } else if (item.tag > it->second.tag) {
          it->second = item;
        }
      }
    } else {
      bool want_all = true;
      std::vector<Item> want;
      for (PoiId o : row) {
        auto it = ref.find({u, o});
        if (it == ref.end()) {
          want_all = false;
          want.push_back({kInfDistance, -kInfDistance});
        } else {
          want.push_back(it->second);
        }
      }
      std::vector<double> out(row.size(), -1.0);
      std::vector<double> out_tags(row.size(), -1.0);
      const bool got = cache.LookupRow(u, row, out.data(), out_tags.data());
      ASSERT_EQ(got, want_all) << "step " << step << " user " << u;
      ++(got ? full : partial);
      const double bound = tags[1 + rng.NextBounded(std::size(tags) - 1)];
      for (size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(bits(out[i]), bits(want[i].dist))
            << "step " << step << " user " << u << " poi " << row[i];
        ASSERT_EQ(bits(out_tags[i]), bits(want[i].tag))
            << "step " << step << " user " << u << " poi " << row[i];
        // A decided read reports what a search under its bound would.
        const std::optional<double> d = Decide(want[i], bound);
        if (!d.has_value()) {
          ++undecided;
          continue;
        }
        ++decided;
        const double t = true_dist(u, row[i]);
        ASSERT_EQ(bits(*d), bits(t <= bound ? t : kInfDistance));
      }
    }
  }
  // Every outcome was exercised, and the budget never evicted.
  EXPECT_GT(full, 1000);
  EXPECT_GT(partial, 1000);
  EXPECT_GT(decided, 1000);
  EXPECT_GT(undecided, 1000);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(full));
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(partial));
}

TEST(DistanceCacheTest, EvictsWholeLeastRecentlyUsedRows) {
  DistanceCacheOptions options;
  options.max_entries = 10;
  options.num_shards = 1;  // Single shard: deterministic LRU order.
  DistanceCache cache(options);
  const double dists[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> tags = Tags(6, 10.0);
  auto insert = [&](UserId u, const std::vector<PoiId>& pois) {
    cache.InsertRow(u, pois, dists, tags.data());
    ASSERT_LE(cache.GetStats().entries, options.max_entries);
  };
  auto hits = [&](UserId u, const std::vector<PoiId>& pois) {
    double out[6];
    double out_tags[6];
    const bool hit = cache.LookupRow(u, pois, out, out_tags);
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
      cache.InsertRow(u, row, dists.data(), Tags(row.size(), 10.0).data());
    } else {
      std::vector<double> out(row.size());
      std::vector<double> out_tags(row.size());
      cache.LookupRow(u, row, out.data(), out_tags.data());
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
  const std::vector<double> tags = Tags(wide.size(), 10.0);
  std::vector<double> out(wide.size());
  std::vector<double> out_tags(wide.size());
  cache.InsertRow(5, wide, dists.data(), tags.data());
  EXPECT_FALSE(cache.LookupRow(5, wide, out.data(), out_tags.data()));
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().insertions, 0u);
  // A row that would outgrow the share leaves the cached row as it was.
  const std::vector<PoiId> low = {0, 1, 2, 3, 4};
  const std::vector<PoiId> high = {10, 11, 12, 13, 14};
  cache.InsertRow(5, low, dists.data(), tags.data());
  cache.InsertRow(5, high, dists.data(), tags.data());
  EXPECT_TRUE(cache.LookupRow(5, low, out.data(), out_tags.data()));
  EXPECT_FALSE(cache.LookupRow(5, high, out.data(), out_tags.data()));
  EXPECT_EQ(cache.GetStats().entries, 5u);
}

TEST(DistanceCacheTest, ConcurrentHammerKeepsEntriesConsistent) {
  // 8 threads × overlapping users and multi-POI rows. Every thread
  // inserts the canonical value f(u, o) or a weak "> 0.5" proof, and
  // checks that every item it reads is one of those two, or missing —
  // never a torn or foreign value. The budget is small enough that whole
  // rows are evicted too.
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
      std::vector<double> tags;
      std::vector<double> out;
      std::vector<double> out_tags;
      for (int i = 0; i < kIters; ++i) {
        const UserId u = static_cast<UserId>(rng.NextBounded(kUsers));
        const std::vector<PoiId> row =
            RandomRow(&rng, kPois, 1 + static_cast<int>(rng.NextBounded(8)));
        switch (rng.NextBounded(3)) {
          case 0:
            dists.clear();
            for (PoiId o : row) dists.push_back(canonical(u, o));
            tags.assign(row.size(), 1e9);
            cache.InsertRow(u, row, dists.data(), tags.data());
            break;
          case 1:
            // A weaker inf proof; must never clobber a finite value.
            dists.assign(row.size(), kInfDistance);
            tags.assign(row.size(), 0.5);
            cache.InsertRow(u, row, dists.data(), tags.data());
            break;
          default:
            out.assign(row.size(), -1.0);
            out_tags.assign(row.size(), -1.0);
            cache.LookupRow(u, row, out.data(), out_tags.data());
            for (size_t k = 0; k < row.size(); ++k) {
              const bool exact = out[k] == canonical(u, row[k]) &&
                                 out_tags[k] == kInfDistance;
              const bool proof = out[k] == kInfDistance &&
                                 (out_tags[k] == 0.5 ||
                                  out_tags[k] == -kInfDistance);
              if (!exact && !proof) ++violations;
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
