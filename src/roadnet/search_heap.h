// Copyright 2026 The gpssn Authors.
//
// The frontier of the road searches: a 4-ary min-heap of (key, vertex)
// entries with lazy deletion. DijkstraEngine (roadnet/shortest_path.h) and
// the CH engine's upward search (roadnet/distance_backend.cc) push a vertex
// again whenever its label drops, the Dijkstra engine's grown rows whenever
// a settle reaches it, and all skip the stale entries as they pop.
//
// A road search's frontier is small (tens of entries), so a binary heap
// spends its time in mispredicted branches, not in memory. This heap is
// half as deep, and every slot past its end holds a +inf key, so a pop
// picks the least of four children with comparisons that compile to
// conditional moves. Both sifts move a hole instead of swapping entries,
// and the storage is kept across searches: a warm search allocates nothing.
//
// The pop order among equal keys is unspecified, and no label depends on
// it: a vertex's label is the least label(u) + w over the neighbours u
// settled before it, and a neighbour settled later has a label no smaller,
// so adding w >= 0 to it cannot lower the minimum (DESIGN.md §9).

#ifndef GPSSN_ROADNET_SEARCH_HEAP_H_
#define GPSSN_ROADNET_SEARCH_HEAP_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "roadnet/types.h"

namespace gpssn {

class SearchHeap {
 public:
  struct Entry {
    double key = 0.0;
    VertexId vertex = kInvalidVertex;
  };

  bool empty() const { return size_ == 0; }

  /// The least key, or +inf when the heap is empty (slot 0 is then free).
  double TopKey() const { return slots_[0].key; }

  /// Makes room for `n` entries, so that many pushes allocate nothing.
  void Reserve(size_t n) {
    if (n + kArity > slots_.size()) slots_.resize(n + kArity, kFree);
  }

  /// Empties the heap and keeps its storage.
  void clear() {
    for (size_t i = 0; i < size_; ++i) slots_[i] = kFree;
    size_ = 0;
  }

  void Push(double key, VertexId vertex) {
    if (size_ + kArity > slots_.size()) {
      slots_.resize(2 * slots_.size(), kFree);
    }
    size_t hole = size_++;
    while (hole > 0) {
      const size_t parent = (hole - 1) / kArity;
      if (slots_[parent].key <= key) break;
      slots_[hole] = slots_[parent];
      hole = parent;
    }
    slots_[hole] = Entry{key, vertex};
  }

  /// Removes and returns an entry with the least key; the heap must not be
  /// empty.
  Entry Pop() {
    const Entry top = slots_[0];
    const Entry last = slots_[--size_];
    slots_[size_] = kFree;
    if (size_ == 0) return top;
    size_t hole = 0;
    for (size_t first = 1; first < size_; first = hole * kArity + 1) {
      const size_t least = LeastOfFour(first);
      if (!(slots_[least].key < last.key)) break;
      slots_[hole] = slots_[least];
      hole = least;
    }
    slots_[hole] = last;
    return top;
  }

 private:
  static constexpr size_t kArity = 4;
  static constexpr Entry kFree{std::numeric_limits<double>::infinity(),
                               kInvalidVertex};

  /// The slot of the least key among slots [first, first + 4). Free slots
  /// hold +inf, and a real key is never above +inf, so a free slot wins
  /// only when no real entry could sift up anyway.
  size_t LeastOfFour(size_t first) const {
    const double k0 = slots_[first].key;
    const double k1 = slots_[first + 1].key;
    const double k2 = slots_[first + 2].key;
    const double k3 = slots_[first + 3].key;
    const size_t a = first + (k1 < k0 ? 1 : 0);
    const double ka = k1 < k0 ? k1 : k0;
    const size_t b = first + (k3 < k2 ? 3 : 2);
    const double kb = k3 < k2 ? k3 : k2;
    return kb < ka ? b : a;
  }

  // slots_[0, size_) is the heap. Every slot past it is kFree, and Push
  // keeps at least kArity - 1 slots past it, so a child group that starts
  // inside the heap ends inside slots_.
  std::vector<Entry> slots_ = std::vector<Entry>(kArity, kFree);
  size_t size_ = 0;
};

}  // namespace gpssn

#endif  // GPSSN_ROADNET_SEARCH_HEAP_H_
