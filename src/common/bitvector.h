// Copyright 2026 The gpssn Authors.
//
// Exact bit sets over small integer ids, a bit per id and no hashing.
//
// A keyword mask summarizes a keyword set over the d topics in
// KeywordMaskWords(d) words. I_R keeps one per POI (its sup_K) and one per
// R*-tree node (the OR of its entries' masks): the paper's Eq. 15 bit
// vector with an identity hash, so a set bit is never a collision and the
// matching-score bounds of Lemmas 1 and 6 read the exact set.
//
// DynamicBitset is a plain variable-width bitset, used for candidate-local
// adjacency and keyword-union masks in the refinement phase, where set
// operations become word-parallel AND / ANDNOT loops.

#ifndef GPSSN_COMMON_BITVECTOR_H_
#define GPSSN_COMMON_BITVECTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gpssn {

/// Words of an exact keyword mask over [0, num_topics): bit f of word
/// f / 64 is keyword f.
inline size_t KeywordMaskWords(int num_topics) {
  return (static_cast<size_t>(num_topics) + 63) / 64;
}

/// ORs the keywords of `keywords` that lie in [0, num_topics) into `mask`
/// (KeywordMaskWords(num_topics) words). Others are dropped: no interest
/// vector has a weight for them, so no match score counts them.
void AddToKeywordMask(std::span<const int> keywords, int num_topics,
                      uint64_t* mask);

/// Set bits of `words`.
size_t CountSetBits(std::span<const uint64_t> words);

/// Calls `fn(i)` for every set bit i of `words`, ascending.
template <typename Fn>
void ForEachSetBit(std::span<const uint64_t> words, Fn&& fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

/// Exact variable-width bitset over ids in [0, size): bit i means exactly
/// "i is in the set". Word-level access is exposed so callers can fuse set
/// algebra with iteration (adjacency ∧ active ∧ ¬seen in the ESU
/// enumerator, masked row sums in MatchScore).
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size) { Reset(size); }

  /// Resizes to `size` bits, all clear. Keeps word capacity.
  void Reset(size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  size_t size() const { return size_; }
  size_t num_words() const { return words_.size(); }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  uint64_t Word(size_t w) const { return words_[w]; }
  const uint64_t* words() const { return words_.data(); }

  size_t PopCount() const { return CountSetBits(words_); }

  /// Calls `fn(i)` for every set bit, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachSetBit(words_, fn);
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_BITVECTOR_H_
