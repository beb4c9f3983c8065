// Tests for the simulated paged storage and LRU buffer pool (the I/O
// metric's substrate).

#include "common/pagestore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace gpssn {
namespace {

TEST(PageAllocatorTest, PacksSmallObjectsOnOnePage) {
  PageAllocator alloc(100);
  EXPECT_EQ(alloc.pages_used(), 0u);
  const PageId a = alloc.Place(40);
  const PageId b = alloc.Place(40);
  EXPECT_EQ(a, b);  // Both fit on the first page.
  EXPECT_EQ(alloc.pages_used(), 1u);
  const PageId c = alloc.Place(40);  // 120 > 100: next page.
  EXPECT_EQ(c, a + 1);
  EXPECT_EQ(alloc.pages_used(), 2u);
}

TEST(PageAllocatorTest, LargeObjectsSpanPages) {
  PageAllocator alloc(100);
  alloc.Place(10);
  const PageId big = alloc.Place(250);  // Needs 3 pages, starts fresh.
  EXPECT_EQ(big, 1u);
  EXPECT_EQ(alloc.PagesSpanned(250), 3u);
  EXPECT_EQ(alloc.pages_used(), 4u);
  const PageId next = alloc.Place(10);
  EXPECT_EQ(next, 4u);
  EXPECT_EQ(alloc.pages_used(), 5u);
}

TEST(PageAllocatorTest, ZeroByteObjectsStillGetAPage) {
  PageAllocator alloc(100);
  const PageId a = alloc.Place(0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(alloc.PagesSpanned(1), 1u);
  EXPECT_EQ(alloc.pages_used(), 1u);
}

// The pools below serve 16 I_S pages and 16 I_R pages.
constexpr uint32_t kPages = 16;

TEST(BufferPoolTest, ColdAccessesMiss) {
  BufferPool pool(4, kPages, kPages);
  pool.Access(1);
  pool.Access(2);
  EXPECT_EQ(pool.stats().logical_accesses, 2u);
  EXPECT_EQ(pool.stats().page_misses, 2u);
}

TEST(BufferPoolTest, WarmAccessesHit) {
  BufferPool pool(4, kPages, kPages);
  pool.Access(1);
  pool.Access(1);
  pool.Access(1);
  EXPECT_EQ(pool.stats().logical_accesses, 3u);
  EXPECT_EQ(pool.stats().page_misses, 1u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(2, kPages, kPages);
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
  BufferPool pool(0, kPages, kPages);
  for (int i = 0; i < 5; ++i) pool.Access(7);
  EXPECT_EQ(pool.stats().page_misses, 5u);
}

TEST(BufferPoolDeathTest, PageOutsideItsRangeAborts) {
#if !defined(NDEBUG) || defined(GPSSN_AUDIT)
  BufferPool pool(4, kPages, kPages);
  EXPECT_DEATH(pool.Access(kPages), "GPSSN_CHECK failed");
  EXPECT_DEATH(pool.Access(kPoiIndexFirstPage + kPages),
               "GPSSN_CHECK failed");
  EXPECT_DEATH(pool.Access(kInvalidPage), "GPSSN_CHECK failed");
#else
  GTEST_SKIP() << "the range check is armed in debug and audit builds";
#endif
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

  const IoStats& stats() const { return stats_; }

 private:
  uint32_t capacity_;
  IoStats stats_;
  std::list<PageId> order_;  // Front = most recently used.
  std::unordered_map<PageId, std::list<PageId>::iterator> where_;
};

// Random traces over both ranges: hot sets in each (hits and evictions),
// repeated MRU hits, each range's first and last page, the page at the
// same offset in the other range, and cold pages anywhere in either range.
// Layouts run from one page per index to UNI x0.2's (1,590 I_S pages and
// 61 I_R pages), so some pools hold more slots than there are pages. Every
// step must leave both models with equal stats.
TEST(BufferPoolTest, MatchesReferenceLruOnRandomTraces) {
  struct Layout {
    uint32_t social_pages;
    uint32_t poi_pages;
  };
  for (uint32_t capacity : {0u, 1u, 2u, 3u, 64u, 4096u}) {
    for (const Layout layout : {Layout{1, 1}, Layout{3, 2}, Layout{40, 7},
                                Layout{1590, 61}, Layout{5000, 5000}}) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << ", layout "
                   << layout.social_pages << " + " << layout.poi_pages);
      const uint32_t social = layout.social_pages;
      const uint32_t poi = layout.poi_pages;
      const PageId ends[] = {0, social - 1, kPoiIndexFirstPage,
                             kPoiIndexFirstPage + poi - 1};
      // A working set a little larger than the capacity keeps both hits
      // and evictions frequent.
      const uint64_t hot = uint64_t{capacity} + capacity / 4 + 3;
      const uint64_t hot_social = std::min<uint64_t>(hot, social);
      const uint64_t hot_poi = std::min<uint64_t>(hot, poi);
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 7919 + capacity + social);
        BufferPool pool(capacity, social, poi);
        ReferenceLru reference(capacity);
        PageId last = 0;
        for (int step = 0; step < 20000; ++step) {
          const uint64_t kind = rng.NextBounded(100);
          PageId page;
          if (kind < 40) {
            page = static_cast<PageId>(rng.NextBounded(hot_social));
          } else if (kind < 60) {
            page = kPoiIndexFirstPage +
                   static_cast<PageId>(rng.NextBounded(hot_poi));
          } else if (kind < 70) {
            page = last;  // Repeated MRU hit.
          } else if (kind < 80) {
            page = ends[rng.NextBounded(4)];
          } else if (kind < 90) {  // The same offset in the other range.
            const bool in_social = last < kPoiIndexFirstPage;
            const PageId offset = in_social ? last : last - kPoiIndexFirstPage;
            page = in_social ? kPoiIndexFirstPage + offset % poi
                             : offset % social;
          } else if (kind < 95) {
            page = static_cast<PageId>(rng.NextBounded(social));
          } else {
            page = kPoiIndexFirstPage +
                   static_cast<PageId>(rng.NextBounded(poi));
          }
          pool.Access(page);
          reference.Access(page);
          last = page;
          ASSERT_EQ(pool.stats().page_misses, reference.stats().page_misses)
              << "seed " << seed << ", step " << step << ", page " << page;
        }
        EXPECT_EQ(pool.stats().logical_accesses,
                  reference.stats().logical_accesses);
      }
    }
  }
}

}  // namespace
}  // namespace gpssn
