// Copyright 2026 The gpssn Authors.
//
// Fixed-width keyword bit vectors (Section 4.1 of the paper): each keyword
// of a POI's sup_K / sub_K set is hashed into a position of a bit vector so
// index nodes can summarize keyword sets in constant space. A set bit may be
// a hash collision, so membership tests only ever *over*-estimate — which is
// exactly what the matching-score *upper* bounds (Lemmas 1 and 6) need.
// Lower bounds (Eq. 18) must not use these vectors; they use exact keyword
// sets of sampled objects instead.
//
// DynamicBitset is the exact (collision-free) sibling: a plain variable-
// width bitset over small integer ids, used for candidate-local adjacency
// and keyword-union masks in the refinement phase, where set operations
// become word-parallel AND / ANDNOT loops.

#ifndef GPSSN_COMMON_BITVECTOR_H_
#define GPSSN_COMMON_BITVECTOR_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gpssn {

/// 256-bit keyword signature. Keywords are small integer ids (positions in
/// the global topic vocabulary); each id is hashed to one bit position.
class KeywordBitVector {
 public:
  static constexpr int kBits = 256;
  static constexpr int kWords = kBits / 64;

  KeywordBitVector() : words_{} {}

  /// Builds a signature covering every keyword in `keywords`.
  static KeywordBitVector FromKeywords(const std::vector<int>& keywords);

  /// Hash position of keyword id `kw` (stable across runs).
  static int BitFor(int kw);

  void Add(int kw);

  /// True when keyword `kw` MAY be present (false positives possible,
  /// false negatives impossible).
  bool MayContain(int kw) const;

  /// Bitwise OR (union of summarized sets), used to aggregate child
  /// signatures into non-leaf index entries.
  void UnionWith(const KeywordBitVector& other);

  bool empty() const;
  int PopCount() const;

  friend bool operator==(const KeywordBitVector& a, const KeywordBitVector& b) {
    return a.words_ == b.words_;
  }

 private:
  std::array<uint64_t, kWords> words_;
};

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

/// Exact variable-width bitset over ids in [0, size). Unlike
/// KeywordBitVector there is no hashing: bit i means exactly "i is in the
/// set". Word-level access is exposed so callers can fuse set algebra with
/// iteration (adjacency ∧ active ∧ ¬seen in the ESU enumerator, masked row
/// sums in MatchScore).
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
