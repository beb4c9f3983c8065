#include "common/bitvector.h"

namespace gpssn {

void AddToKeywordMask(std::span<const int> keywords, int num_topics,
                      uint64_t* mask) {
  for (int kw : keywords) {
    if (kw >= 0 && kw < num_topics) {
      mask[kw / 64] |= uint64_t{1} << (kw % 64);
    }
  }
}

}  // namespace gpssn
