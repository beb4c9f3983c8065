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

  void Reset() { *this = IoStats(); }
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
  /// first one (subsequent reads charge all spanned pages).
  PageId Place(uint32_t nbytes);

  /// Number of pages spanned by the object placed at `page` with `nbytes`.
  uint32_t PagesSpanned(uint32_t nbytes) const;

  uint32_t page_size() const { return page_size_; }

 private:
  uint32_t page_size_;
  PageId next_page_;   // Page currently being filled.
  PageId end_page_;    // First page id outside the allocator's range.
  uint32_t used_ = 0;  // Bytes used on the current page.
};

/// Exact LRU buffer pool over simulated pages: a page misses iff it is not
/// among the `capacity` most recently used distinct pages. Flat arrays
/// only: `capacity` slots hold the cached pages, linked MRU → LRU by index,
/// and an open-addressed page → slot table (linear probing, backward-shift
/// deletion, at least 2 × capacity buckets) finds them. After construction
/// the pool never allocates. Page ids must be below kInvalidPage, the
/// table's empty mark. Thread-compatible: every pool belongs to one query
/// plan, which one thread runs, so it is deliberately not a capability of
/// common/sync.h.
class BufferPool {
 public:
  /// `capacity_pages` == 0 disables caching (every access is a miss).
  explicit BufferPool(uint32_t capacity_pages = 64);

  /// Touches `page`; updates stats and LRU state.
  void Access(PageId page);

  /// Touches `count` consecutive pages starting at `page`.
  void AccessRun(PageId page, uint32_t count);

  /// Drops all cached pages (stats are preserved).
  void Clear();

  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }
  void ResetStats() { stats_.Reset(); }

  uint32_t capacity() const { return capacity_; }

 private:
  static constexpr uint32_t kNoSlot = ~0u;

  struct Slot {
    PageId page;
    uint32_t prev;  // Towards the MRU end; kNoSlot at the head.
    uint32_t next;  // Towards the LRU end; kNoSlot at the tail.
  };
  struct Bucket {
    PageId page = kInvalidPage;  // kInvalidPage = empty.
    uint32_t slot = kNoSlot;
  };

  // The bucket a probe for `page` starts at: the high bits of a
  // multiplicative hash, so ids that differ only in high bits spread too.
  uint32_t Home(PageId page) const;
  // Removes `page`, which must be present, from the table.
  void EraseFromTable(PageId page);
  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);

  uint32_t capacity_;
  IoStats stats_;
  uint32_t used_ = 0;        // Slots holding a page.
  uint32_t head_ = kNoSlot;  // Most recently used.
  uint32_t tail_ = kNoSlot;  // Least recently used.
  uint32_t mask_ = 0;        // Table size − 1.
  int shift_ = 0;            // 64 − log2(table size).
  std::vector<Slot> slots_;
  std::vector<Bucket> table_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_PAGESTORE_H_
