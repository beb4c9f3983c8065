#include "common/bitvector.h"

#include <bit>

namespace gpssn {

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

}  // namespace gpssn
