#include "roadnet/distance_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gpssn {

namespace {

int RoundUpPow2(int v) {
  int p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

DistanceCache::DistanceCache(const DistanceCacheOptions& options)
    : max_entries_(std::max<size_t>(options.max_entries, 1)) {
  const int shards = RoundUpPow2(std::max(options.num_shards, 1));
  shard_mask_ = static_cast<uint64_t>(shards - 1);
  shards_ = std::vector<Shard>(shards);
  // Split the budget exactly: the shares sum to max_entries.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].budget = max_entries_ / shards_.size() +
                        (i < max_entries_ % shards_.size() ? 1 : 0);
  }
}

uint32_t DistanceCache::Shard::AddRow(UserId user) {
  uint32_t r = free_head;
  if (r != kNone) {
    free_head = slab[r].next;
  } else {
    r = static_cast<uint32_t>(slab.size());
    slab.emplace_back();
  }
  slab[r].user = user;
  index.emplace(user, r);
  return r;
}

void DistanceCache::Shard::RemoveRow(uint32_t r) {
  Unlink(r);
  Row& row = slab[r];
  index.erase(row.user);
  items -= row.items.size();
  std::vector<Item>().swap(row.items);  // Return the row's memory.
  row.next = free_head;
  free_head = r;
}

void DistanceCache::Shard::Unlink(uint32_t r) {
  const Row& row = slab[r];
  (row.prev == kNone ? lru_head : slab[row.prev].next) = row.next;
  (row.next == kNone ? lru_tail : slab[row.next].prev) = row.prev;
}

void DistanceCache::Shard::PushFront(uint32_t r) {
  Row& row = slab[r];
  row.prev = kNone;
  row.next = lru_head;
  (lru_head == kNone ? lru_tail : slab[lru_head].prev) = r;
  lru_head = r;
}

bool DistanceCache::LookupRow(UserId user, std::span<const PoiId> pois,
                              double* dists, double* tags) {
  Shard& shard = ShardFor(user);
  MutexLock lock(shard.mu);
  const uint32_t r = shard.Find(user);
  const std::span<const Item> items =
      r == kNone ? std::span<const Item>() : shard.slab[r].items;
  // The row and the request both ascend by POI id: walk them together.
  bool all = true;
  auto it = items.begin();
  for (size_t i = 0; i < pois.size(); ++i) {
    while (it != items.end() && it->poi < pois[i]) ++it;
    if (it == items.end() || it->poi != pois[i]) {
      dists[i] = kInfDistance;
      tags[i] = -kInfDistance;
      all = false;
      continue;
    }
    dists[i] = it->exact ? it->value : kInfDistance;
    tags[i] = it->tag();
  }
  if (r != kNone) {
    shard.Unlink(r);
    shard.PushFront(r);
  }
  ++(all ? shard.hits : shard.misses);
  return all;
}

void DistanceCache::InsertRow(UserId user, std::span<const PoiId> pois,
                              const double* dists, const double* tags) {
  Shard& shard = ShardFor(user);
  MutexLock lock(shard.mu);
  uint32_t r = shard.Find(user);
  // Merge the cached items and the new row, both ascending by POI id, into
  // the shard's buffer.
  std::vector<Item>& merged = shard.merged;
  merged.clear();
  const std::span<const Item> old =
      r == kNone ? std::span<const Item>() : shard.slab[r].items;
  uint64_t added = 0;
  size_t i = 0;
  for (size_t j = 0; j < pois.size(); ++j) {
    for (; i < old.size() && old[i].poi < pois[j]; ++i) {
      merged.push_back(old[i]);
    }
    const bool exact = std::isfinite(dists[j]);
    if (!exact && tags[j] == -kInfDistance) continue;  // Proves nothing.
    const Item item{pois[j], exact, exact ? dists[j] : tags[j]};
    if (i == old.size() || old[i].poi != pois[j]) {
      merged.push_back(item);
      ++added;
      continue;
    }
    // An exact item's tag is +inf, so the larger tag wins both ways: exact
    // over inf, and the stronger of two inf proofs.
    merged.push_back(item.tag() > old[i].tag() ? item : old[i]);
    ++i;
  }
  merged.insert(merged.end(), old.begin() + i, old.end());
  if (merged.empty() || merged.size() > shard.budget) return;

  // Evict whole least-recently-used rows, never this user's, until the
  // merged row fits the shard's budget.
  const size_t old_size = old.size();
  if (r != kNone) shard.Unlink(r);
  while (shard.items - old_size + merged.size() > shard.budget) {
    const uint32_t victim = shard.lru_tail;
    shard.evictions += shard.slab[victim].items.size();
    shard.RemoveRow(victim);
  }
  if (r == kNone) r = shard.AddRow(user);
  shard.slab[r].items.assign(merged.begin(), merged.end());
  shard.items = shard.items - old_size + merged.size();
  shard.PushFront(r);
  shard.insertions += added;
}

DistanceCache::Stats DistanceCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.entries += shard.items;
  }
  return stats;
}

void DistanceCache::Clear() {
  // Drops every row but keeps the lifetime counters: a Clear() after an
  // index mutation should not erase the observability history.
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.slab.clear();
    shard.index.clear();
    shard.lru_head = shard.lru_tail = shard.free_head = kNone;
    shard.items = 0;
  }
}

std::string DistanceCache::Stats::ToString() const {
  char buf[192];
  const uint64_t total = hits + misses;
  std::snprintf(buf, sizeof(buf),
                "entries=%zu row-hits=%llu row-misses=%llu (%.1f%% hit) "
                "insertions=%llu evictions=%llu",
                entries, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                total > 0 ? 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total)
                          : 0.0,
                static_cast<unsigned long long>(insertions),
                static_cast<unsigned long long>(evictions));
  return buf;
}

}  // namespace gpssn
