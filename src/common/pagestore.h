// Copyright 2026 The gpssn Authors.
//
// Simulated disk-resident storage. The paper's efficiency metric is the
// number of page accesses during query answering; to reproduce it without a
// real disk we model index nodes (and graph adjacency blocks consulted at
// query time) as objects placed on fixed-size pages, fronted by a small LRU
// buffer pool. Every logical object access charges the buffer pool; misses
// count as page I/Os.

#ifndef GPSSN_COMMON_PAGESTORE_H_
#define GPSSN_COMMON_PAGESTORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace gpssn {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = ~0u;

/// Counts logical and physical accesses observed through a buffer pool.
struct IoStats {
  uint64_t logical_accesses = 0;  // Object fetches requested.
  uint64_t page_misses = 0;       // Pages actually "read from disk".
};

/// Simulated page size of both indexes, in bytes.
inline constexpr uint32_t kIndexPageSize = 4096;

/// The page-id space is split between the two indexes a query charges to
/// one buffer pool: I_S lays out its pages in [0, kPoiIndexFirstPage) and
/// I_R in [kPoiIndexFirstPage, kInvalidPage), so no page of one index
/// aliases a page of the other.
inline constexpr PageId kPoiIndexFirstPage = PageId{1} << 31;

/// Assigns variable-size objects to sequential fixed-size pages (a simple
/// first-fit append allocator — objects created together are co-located,
/// mimicking how a bulk-loaded index is laid out on disk).
class PageAllocator {
 public:
  /// `page_size` is the usable bytes per page; must be positive. Pages are
  /// handed out from `first_page` and must stay below `end_page`
  /// (GPSSN_CHECK).
  explicit PageAllocator(uint32_t page_size = kIndexPageSize,
                         PageId first_page = 0,
                         PageId end_page = kInvalidPage);

  /// Places an object of `nbytes` bytes and returns its page. Objects larger
  /// than one page occupy ceil(nbytes / page_size) pages and return the
  /// first one, the only page a read of the object charges. No index record
  /// is that large: the biggest, an I_S node, stays under 2 KB at d = 100.
  PageId Place(uint32_t nbytes);

  /// Number of pages spanned by the object placed at `page` with `nbytes`.
  uint32_t PagesSpanned(uint32_t nbytes) const;

  /// Pages handed out so far: they lie in [first_page, first_page +
  /// pages_used()).
  uint32_t pages_used() const {
    return (used_ > 0 ? next_page_ + 1 : next_page_) - first_page_;
  }

  uint32_t page_size() const { return page_size_; }

 private:
  uint32_t page_size_;
  PageId first_page_;
  PageId next_page_;   // Page currently being filled.
  PageId end_page_;    // First page id outside the allocator's range.
  uint32_t used_ = 0;  // Bytes used on the current page.
};

/// Exact LRU buffer pool over the pages of the two indexes: a page misses
/// iff it is not among the `capacity` most recently used distinct pages.
/// The pool is sized for the layouts it serves, `social_pages` I_S pages in
/// [0, social_pages) and `poi_pages` I_R pages in [kPoiIndexFirstPage,
/// kPoiIndexFirstPage + poi_pages), and numbers them densely: I_S page p is
/// page index p, I_R page p is social_pages + (p − kPoiIndexFirstPage).
/// Flat arrays only: a slot map from page index to the slot caching the
/// page, and `capacity` slots linked MRU → LRU by index. After
/// construction the pool never allocates. Thread-compatible: every pool
/// belongs to one query plan, which one thread runs, so it is deliberately
/// not a capability of common/sync.h.
class BufferPool {
 public:
  /// `capacity_pages` == 0 disables caching (every access is a miss).
  BufferPool(uint32_t capacity_pages, uint32_t social_pages,
             uint32_t poi_pages);

  /// Touches `page`, which must lie in one of the two ranges
  /// (GPSSN_DCHECK); updates stats and LRU state.
  void Access(PageId page);

  const IoStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNoSlot = ~0u;

  struct Slot {
    uint32_t index;  // Page index of the cached page.
    uint32_t prev;   // Towards the MRU end; kNoSlot at the head.
    uint32_t next;   // Towards the LRU end; kNoSlot at the tail.
  };

  uint32_t PageIndex(PageId page) const;
  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);

  uint32_t capacity_;
  uint32_t social_pages_;
  uint32_t poi_pages_;
  IoStats stats_;
  uint32_t used_ = 0;        // Slots holding a page.
  uint32_t head_ = kNoSlot;  // Most recently used.
  uint32_t tail_ = kNoSlot;  // Least recently used.
  std::vector<Slot> slots_;
  std::vector<uint32_t> slot_of_;  // Page index → slot, or kNoSlot.
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_PAGESTORE_H_
