// Copyright 2026 The gpssn Authors.
//
// A sharded, memory-bounded cross-query cache of exact user→POI road
// distances. The batch executor's workers repeatedly recompute the same
// user→POI distances (popular issuers, overlapping candidate balls); this
// cache lets any worker reuse a distance another worker already paid for,
// across queries, over the immutable indexes.
//
// The cache is ROW-GRANULAR: refinement reads and writes one user's
// distances to a whole needed-POI set at a time, so each shard keeps one
// entry per cached user holding that user's items sorted by POI id in one
// flat allocation. LookupRow and InsertRow cost one stripe lock and one
// probe per row, and walk the row and the requested POI ids together.
//
// Items are BOUND-TAGGED: refinement decides each distance under a bound
// (the best objective so far), and "no result" only proves the distance
// exceeds THAT bound. An item therefore stores either
//   * a finite distance d — exact, decides a read under ANY bound (the
//     caller compares d against its own bound); its tag is +inf, or
//   * kInfDistance tagged with the bound b it was proven under — meaning
//     dist > b, which decides reads with bound <= b only.
// LookupRow hands each item back with its tag and leaves the judging to the
// caller, because refinement reads one row under many bounds: it grows a
// row's search only for the entries whose tags fall below a read's bound.
// Inserts only strengthen items, so an entry serves any subset of what was
// ever cached for its user. See DESIGN.md "Distance backends & caching".
//
// Dynamic maintenance needs no invalidation: GpssnDatabase::AddPoi gives
// the new POI the next unused id and leaves the road graph as it is, so
// no cached distance goes stale and no cached row holds the new id.
// Clear() remains for full resets.

#ifndef GPSSN_ROADNET_DISTANCE_CACHE_H_
#define GPSSN_ROADNET_DISTANCE_CACHE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"
#include "roadnet/shortest_path.h"
#include "roadnet/types.h"

namespace gpssn {

struct DistanceCacheOptions {
  /// Total budget across all shards, counted in (user, POI) items. The
  /// shards split it exactly, and each evicts whole least-recently-used
  /// rows to stay within its share.
  size_t max_entries = 1u << 20;
  /// Lock-striping factor; rounded up to a power of two. One mutex, row
  /// slab, and LRU list per shard; a user's row lives in one shard.
  int num_shards = 16;
};

/// Thread-safe user → (poi → distance) row cache with striped locks and
/// per-shard LRU eviction of whole rows. Shared by all workers of a batch
/// executor.
class DistanceCache {
 public:
  explicit DistanceCache(const DistanceCacheOptions& options = {});

  GPSSN_DISALLOW_COPY_AND_MOVE(DistanceCache);

  /// Reads `user`'s items over `pois` (strictly ascending ids): dists[i]
  /// and tags[i] receive pois[i]'s item, an exact distance with tag +inf
  /// or kInfDistance with the tag t it proves "dist > t" for. A POI with
  /// no item reads kInfDistance tagged -kInfDistance, which proves
  /// nothing. Returns true when every POI had an item (an empty `pois`
  /// does). A lookup that finds the user's entry makes it the most recently
  /// used. Allocates nothing.
  bool LookupRow(UserId user, std::span<const PoiId> pois, double* dists,
                 double* tags);

  /// Merges items into `user`'s entry, over `pois` (strictly ascending): a
  /// finite dists[i] is the exact dist_RN(user, pois[i]); kInfDistance
  /// proves dist_RN > tags[i], and is skipped when tags[i] is
  /// -kInfDistance. Per item, finite wins over inf, and among inf items the
  /// larger tag wins. A merged row wider than its shard's budget is not
  /// cached (the entry stays as it was).
  void InsertRow(UserId user, std::span<const PoiId> pois,
                 const double* dists, const double* tags);

  /// Row lookups count in hits/misses; items count in everything else.
  struct Stats {
    uint64_t hits = 0;         // LookupRow calls that found every item.
    uint64_t misses = 0;       // LookupRow calls that missed an item.
    uint64_t insertions = 0;   // Items added for a (user, POI) not cached.
    uint64_t evictions = 0;    // Items dropped with their evicted rows.
    size_t entries = 0;        // Items cached now.
    std::string ToString() const;
  };
  Stats GetStats() const;

  size_t max_entries() const { return max_entries_; }

  void Clear();

 private:
  /// Null slab index: no row, or the end of a list.
  static constexpr uint32_t kNone = ~uint32_t{0};

  // An item is the exact distance, or the proof "dist > value": one value
  // and its kind, so an item takes 16 bytes.
  struct Item {
    PoiId poi = 0;
    bool exact = false;
    double value = kInfDistance;

    /// The largest bound the item decides reads under.
    double tag() const { return exact ? kInfDistance : value; }
  };
  static_assert(sizeof(Item) == 16);

  // One cached user: its items, ascending by POI id, and its links in the
  // shard's LRU list (slab indices). `next` also links the free list.
  struct Row {
    UserId user = 0;
    uint32_t prev = kNone;
    uint32_t next = kNone;
    std::vector<Item> items;
  };

  // Everything in a shard — slab, user index, LRU list, and counters — is
  // one unit under the stripe lock `mu`; there is no lock-free read path.
  struct alignas(64) Shard {
    mutable Mutex mu;
    size_t budget = 0;  // Item share of max_entries; fixed at construction.
    std::vector<Row> slab GPSSN_GUARDED_BY(mu);
    std::unordered_map<UserId, uint32_t> index GPSSN_GUARDED_BY(mu);
    uint32_t lru_head GPSSN_GUARDED_BY(mu) = kNone;  // Most recent.
    uint32_t lru_tail GPSSN_GUARDED_BY(mu) = kNone;
    uint32_t free_head GPSSN_GUARDED_BY(mu) = kNone;
    size_t items GPSSN_GUARDED_BY(mu) = 0;
    std::vector<Item> merged GPSSN_GUARDED_BY(mu);  // InsertRow's buffer.
    uint64_t hits GPSSN_GUARDED_BY(mu) = 0;
    uint64_t misses GPSSN_GUARDED_BY(mu) = 0;
    uint64_t insertions GPSSN_GUARDED_BY(mu) = 0;
    uint64_t evictions GPSSN_GUARDED_BY(mu) = 0;

    /// `user`'s slab index, or kNone.
    uint32_t Find(UserId user) const GPSSN_REQUIRES(mu) {
      const auto it = index.find(user);
      return it == index.end() ? kNone : it->second;
    }
    /// A new empty row for `user` (not yet in the LRU list).
    uint32_t AddRow(UserId user) GPSSN_REQUIRES(mu);
    /// Frees row `r`, which must be in the LRU list, with its items.
    void RemoveRow(uint32_t r) GPSSN_REQUIRES(mu);
    void Unlink(uint32_t r) GPSSN_REQUIRES(mu);
    void PushFront(uint32_t r) GPSSN_REQUIRES(mu);
  };

  Shard& ShardFor(UserId user) {
    // Multiplicative mix so consecutive ids spread across shards.
    const uint64_t h =
        static_cast<uint64_t>(static_cast<uint32_t>(user)) *
        0x9e3779b97f4a7c15ull;
    return shards_[(h >> 32) & shard_mask_];
  }

  size_t max_entries_;
  uint64_t shard_mask_;
  std::vector<Shard> shards_;
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_DISTANCE_CACHE_H_
