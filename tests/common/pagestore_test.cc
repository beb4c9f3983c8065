// Tests for the simulated paged storage and LRU buffer pool (the I/O
// metric's substrate).

#include "common/pagestore.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace gpssn {
namespace {

TEST(PageAllocatorTest, PacksSmallObjectsOnOnePage) {
  PageAllocator alloc(100);
  const PageId a = alloc.Place(40);
  const PageId b = alloc.Place(40);
  EXPECT_EQ(a, b);  // Both fit on the first page.
  const PageId c = alloc.Place(40);  // 120 > 100: next page.
  EXPECT_EQ(c, a + 1);
}

TEST(PageAllocatorTest, LargeObjectsSpanPages) {
  PageAllocator alloc(100);
  alloc.Place(10);
  const PageId big = alloc.Place(250);  // Needs 3 pages, starts fresh.
  EXPECT_EQ(big, 1u);
  EXPECT_EQ(alloc.PagesSpanned(250), 3u);
  const PageId next = alloc.Place(10);
  EXPECT_EQ(next, 4u);
}

TEST(PageAllocatorTest, ZeroByteObjectsStillGetAPage) {
  PageAllocator alloc(100);
  const PageId a = alloc.Place(0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(alloc.PagesSpanned(1), 1u);
}

TEST(BufferPoolTest, ColdAccessesMiss) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Access(2);
  EXPECT_EQ(pool.stats().logical_accesses, 2u);
  EXPECT_EQ(pool.stats().page_misses, 2u);
}

TEST(BufferPoolTest, WarmAccessesHit) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Access(1);
  pool.Access(1);
  EXPECT_EQ(pool.stats().logical_accesses, 3u);
  EXPECT_EQ(pool.stats().page_misses, 1u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Access(1);  // miss
  pool.Access(2);  // miss
  pool.Access(1);  // hit (1 now MRU)
  pool.Access(3);  // miss, evicts 2
  pool.Access(1);  // hit
  pool.Access(2);  // miss again
  EXPECT_EQ(pool.stats().page_misses, 4u);
  EXPECT_EQ(pool.stats().logical_accesses, 6u);
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  BufferPool pool(0);
  for (int i = 0; i < 5; ++i) pool.Access(7);
  EXPECT_EQ(pool.stats().page_misses, 5u);
}

TEST(BufferPoolTest, AccessRunTouchesConsecutivePages) {
  BufferPool pool(16);
  pool.AccessRun(10, 3);
  EXPECT_EQ(pool.stats().logical_accesses, 3u);
  EXPECT_EQ(pool.stats().page_misses, 3u);
  pool.Access(11);
  EXPECT_EQ(pool.stats().page_misses, 3u);  // Already cached.
}

TEST(BufferPoolTest, ClearDropsCacheKeepsStats) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Clear();
  pool.Access(1);
  EXPECT_EQ(pool.stats().page_misses, 2u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().page_misses, 0u);
  EXPECT_EQ(pool.stats().logical_accesses, 0u);
}

// The textbook LRU the pool must equal: a recency list plus a map into it.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint32_t capacity) : capacity_(capacity) {}

  void Access(PageId page) {
    ++stats_.logical_accesses;
    auto it = where_.find(page);
    if (it != where_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    ++stats_.page_misses;
    if (capacity_ == 0) return;
    order_.push_front(page);
    where_[page] = order_.begin();
    if (order_.size() > capacity_) {
      where_.erase(order_.back());
      order_.pop_back();
    }
  }

  void Clear() {
    order_.clear();
    where_.clear();
  }

  const IoStats& stats() const { return stats_; }

 private:
  uint32_t capacity_;
  IoStats stats_;
  std::list<PageId> order_;  // Front = most recently used.
  std::unordered_map<PageId, std::list<PageId>::iterator> where_;
};

// Random traces mixing a small hot set (hits and evictions), repeated MRU
// hits, ids that differ only in their high bits, ids up to 0xFFFFFFFE,
// runs and clears. Every step must leave both models with equal stats.
TEST(BufferPoolTest, MatchesReferenceLruOnRandomTraces) {
  for (uint32_t capacity : {0u, 1u, 2u, 3u, 64u, 4096u}) {
    SCOPED_TRACE(capacity);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 7919 + capacity);
      BufferPool pool(capacity);
      ReferenceLru reference(capacity);
      // A working set a little larger than the capacity keeps both hits
      // and evictions frequent.
      const uint64_t hot = uint64_t{capacity} + capacity / 4 + 3;
      PageId last = 0;
      for (int step = 0; step < 60000; ++step) {
        const uint64_t kind = rng.NextBounded(100);
        PageId page;
        if (kind < 60) {
          page = static_cast<PageId>(rng.NextBounded(hot));
        } else if (kind < 70) {
          page = last;  // Repeated MRU hit.
        } else if (kind < 80) {  // Same low bits, different high bits.
          const uint64_t low = rng.NextBounded(hot);
          page = static_cast<PageId>(low | (rng.NextBounded(255) + 1) << 24);
        } else if (kind < 90) {
          page = 0xFFFFFFFEu - static_cast<PageId>(rng.NextBounded(hot));
        } else if (kind < 99) {
          const PageId first = static_cast<PageId>(rng.NextBounded(hot));
          const uint32_t count = static_cast<uint32_t>(rng.NextBounded(8));
          pool.AccessRun(first, count);
          for (uint32_t i = 0; i < count; ++i) reference.Access(first + i);
          ASSERT_EQ(pool.stats().page_misses, reference.stats().page_misses);
          continue;
        } else {
          pool.Clear();
          reference.Clear();
          continue;
        }
        pool.Access(page);
        reference.Access(page);
        last = page;
        ASSERT_EQ(pool.stats().page_misses, reference.stats().page_misses)
            << "step " << step << " page " << page;
      }
      EXPECT_EQ(pool.stats().logical_accesses,
                reference.stats().logical_accesses);
    }
  }
}

}  // namespace
}  // namespace gpssn
