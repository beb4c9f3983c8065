// Tests for the exact bit sets: a keyword mask holds exactly the keywords
// added to it (Lemmas 1 and 6 score it as the keyword set itself), and
// the set-bit walks and counts see exactly the set bits.

#include "common/bitvector.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace gpssn {
namespace {

TEST(KeywordMaskTest, HoldsExactlyTheKeywordsInRange) {
  Rng rng(7);
  for (int num_topics : {1, 63, 64, 65, 100, 130}) {
    const size_t words = KeywordMaskWords(num_topics);
    ASSERT_EQ(words, static_cast<size_t>((num_topics + 63) / 64));
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<int> keywords;
      std::set<size_t> in_range;
      for (int i = 0; i < 12; ++i) {
        // Ids up to 2 · num_topics: the ones outside the vocabulary drop.
        const int kw = static_cast<int>(rng.NextBounded(2 * num_topics)) - 1;
        keywords.push_back(kw);
        if (kw >= 0 && kw < num_topics) in_range.insert(kw);
      }
      std::vector<uint64_t> mask(words, 0);
      AddToKeywordMask(keywords, num_topics, mask.data());
      std::vector<size_t> walked;
      ForEachSetBit(mask, [&](size_t kw) { walked.push_back(kw); });
      ASSERT_EQ(walked, std::vector<size_t>(in_range.begin(), in_range.end()))
          << "num_topics " << num_topics;
      ASSERT_EQ(CountSetBits(mask), in_range.size());
    }
  }
}

TEST(DynamicBitsetTest, SetClearTestAndWalk) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.num_words(), 3u);
  for (size_t i : {0, 63, 64, 129}) bits.Set(i);
  bits.Clear(63);
  EXPECT_TRUE(bits.Test(64));
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.PopCount(), 3u);
  std::vector<size_t> walked;
  bits.ForEach([&](size_t i) { walked.push_back(i); });
  EXPECT_EQ(walked, (std::vector<size_t>{0, 64, 129}));
  bits.Reset(10);
  EXPECT_EQ(bits.num_words(), 1u);
  EXPECT_EQ(bits.PopCount(), 0u);
}

}  // namespace
}  // namespace gpssn
