#include "common/bitvector.h"

#include <bit>

namespace gpssn {

namespace {
// 64-bit FNV-1a over the 4 bytes of the keyword id.
uint64_t HashKeyword(int kw) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto v = static_cast<uint32_t>(kw);
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

void AddToKeywordMask(std::span<const int> keywords, int num_topics,
                      uint64_t* mask) {
  for (int kw : keywords) {
    if (kw >= 0 && kw < num_topics) {
      mask[kw / 64] |= uint64_t{1} << (kw % 64);
    }
  }
}

size_t CountSetBits(std::span<const uint64_t> words) {
  size_t n = 0;
  for (uint64_t w : words) n += static_cast<size_t>(std::popcount(w));
  return n;
}

KeywordBitVector KeywordBitVector::FromKeywords(const std::vector<int>& keywords) {
  KeywordBitVector v;
  for (int kw : keywords) v.Add(kw);
  return v;
}

int KeywordBitVector::BitFor(int kw) {
  return static_cast<int>(HashKeyword(kw) % kBits);
}

void KeywordBitVector::Add(int kw) {
  const int bit = BitFor(kw);
  words_[bit >> 6] |= (1ULL << (bit & 63));
}

bool KeywordBitVector::MayContain(int kw) const {
  const int bit = BitFor(kw);
  return (words_[bit >> 6] >> (bit & 63)) & 1ULL;
}

void KeywordBitVector::UnionWith(const KeywordBitVector& other) {
  for (int i = 0; i < kWords; ++i) words_[i] |= other.words_[i];
}

bool KeywordBitVector::empty() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

int KeywordBitVector::PopCount() const {
  int count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

}  // namespace gpssn
