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
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"

namespace gpssn {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = ~0u;

/// Counts logical and physical accesses observed through a buffer pool.
struct IoStats {
  uint64_t logical_accesses = 0;  // Object fetches requested.
  uint64_t page_misses = 0;       // Pages actually "read from disk".

  void Reset() { *this = IoStats(); }
};

/// Assigns variable-size objects to sequential fixed-size pages (a simple
/// first-fit append allocator — objects created together are co-located,
/// mimicking how a bulk-loaded index is laid out on disk).
class PageAllocator {
 public:
  /// `page_size` is the usable bytes per page; must be positive.
  explicit PageAllocator(uint32_t page_size = 4096);

  /// Places an object of `nbytes` bytes and returns its page. Objects larger
  /// than one page occupy ceil(nbytes / page_size) pages and return the
  /// first one (subsequent reads charge all spanned pages).
  PageId Place(uint32_t nbytes);

  /// Number of pages spanned by the object placed at `page` with `nbytes`.
  uint32_t PagesSpanned(uint32_t nbytes) const;

  uint32_t page_size() const { return page_size_; }
  PageId num_pages() const { return next_page_ + (used_ > 0 ? 1 : 0); }

 private:
  uint32_t page_size_;
  PageId next_page_ = 0;  // Page currently being filled.
  uint32_t used_ = 0;     // Bytes used on the current page.
};

/// LRU buffer pool over simulated pages. Thread-compatible (external
/// synchronization required if shared), like a per-query scratch structure.
/// Deliberately NOT a capability of common/sync.h: every pool is owned by
/// exactly one lane (the parallel refinement path allocates one pool per
/// stolen lane precisely so this stays single-threaded), so a mutex here
/// would be pure hot-path overhead with nothing to guard.
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
  uint32_t capacity_;
  IoStats stats_;
  std::list<PageId> lru_;  // Front = most recently used.
  std::unordered_map<PageId, std::list<PageId>::iterator> table_;
};

/// Read-only memory mapping of a whole file — the real-disk counterpart of
/// the simulated page store above. Index loaders (roadnet/index_io) map a
/// preprocessed index file and hand out zero-copy spans into it, so a
/// multi-million-vertex network cold-starts without materializing the
/// hierarchy in anonymous memory and can stay partially out-of-core (pages
/// fault in on first touch). Move-only RAII; the mapping lives until
/// destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. Fails with IoError for missing or unreadable
  /// files. An empty file opens unmapped: size() 0, data() null.
  static Result<MappedFile> Open(const std::string& path);

  bool valid() const { return addr_ != nullptr; }
  const uint8_t* data() const { return static_cast<const uint8_t*>(addr_); }
  size_t size() const { return size_; }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_PAGESTORE_H_
