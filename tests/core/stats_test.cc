// Tests for query-statistics reporting. The row checks expand the
// GPSSN_QUERY_STATS table, so a new row is covered with no test edit.

#include "core/stats.h"

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace gpssn {
namespace {

// A value per row that no other row holds, offset by `salt`.
void SetDistinct(uint64_t* v, int k) {
  *v = 1000 + 7 * static_cast<uint64_t>(k);
}
void SetDistinct(double* v, int k) { *v = 0.25 + k; }
void SetDistinct(bool* v, int /*k*/) { *v = true; }
void SetDistinct(IoStats* v, int k) {
  v->page_misses = 5000 + static_cast<uint64_t>(k);
  v->logical_accesses = 9000 + static_cast<uint64_t>(k);
}

QueryStats DistinctStats(int salt) {
  QueryStats stats;
  int k = salt;
#define GPSSN_TEST_FILL(type, name, merge) SetDistinct(&stats.name, k++);
  GPSSN_QUERY_STATS(GPSSN_TEST_FILL)
#undef GPSSN_TEST_FILL
  return stats;
}

// The merge rules, restated independently of stats.cc.
uint64_t MergedSum(uint64_t a, uint64_t b) { return a + b; }
double MergedSum(double a, double b) { return a + b; }
IoStats MergedSum(const IoStats& a, const IoStats& b) {
  IoStats sum;
  sum.page_misses = a.page_misses + b.page_misses;
  sum.logical_accesses = a.logical_accesses + b.logical_accesses;
  return sum;
}
bool MergedOr(bool a, bool b) { return a || b; }

void ExpectRowEq(const char* name, const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.page_misses, want.page_misses) << name;
  EXPECT_EQ(got.logical_accesses, want.logical_accesses) << name;
}
template <typename T>
void ExpectRowEq(const char* name, const T& got, const T& want) {
  EXPECT_EQ(got, want) << name;
}

// The `name=value` text ToString prints for a row.
std::string RowText(const std::string& name, uint64_t v) {
  return name + "=" + std::to_string(v);
}
std::string RowText(const std::string& name, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return name + "=" + buf;
}
std::string RowText(const std::string& name, bool v) {
  return name + "=" + (v ? "1" : "0");
}
std::string RowText(const std::string& name, const IoStats& v) {
  return RowText(name + ".page_misses", v.page_misses) + " " +
         RowText(name + ".logical_accesses", v.logical_accesses);
}

// `text` between two spaces, so a find matches whole rows only. Appends
// rather than writing " " + text: gcc 12 at -O3 reports a false
// -Wrestrict inside the std::string::insert that operator+ inlines.
std::string Spaced(const std::string& text) {
  std::string out = " ";
  out += text;
  out += " ";
  return out;
}

TEST(QueryStatsTest, DefaultsAreZero) {
  QueryStats stats;
  EXPECT_EQ(stats.cpu_seconds, 0.0);
  EXPECT_EQ(stats.PageAccesses(), 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(QueryStatsTest, PageAccessesAreBufferMisses) {
  QueryStats stats;
  stats.io.logical_accesses = 100;
  stats.io.page_misses = 37;
  EXPECT_EQ(stats.PageAccesses(), 37u);
}

TEST(QueryStatsTest, MergeFromAppliesEveryRowsRule) {
  const QueryStats zero;
  const QueryStats a = DistinctStats(0);
  const QueryStats b = DistinctStats(100);
  // (zero, b) and (a, zero) tell OR from keep-first and keep-second.
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{zero, b},
                             std::pair{a, zero}}) {
    QueryStats merged = x;
    merged.MergeFrom(y);
#define GPSSN_TEST_MERGE(type, name, merge) \
  ExpectRowEq(#name, merged.name, Merged##merge(x.name, y.name));
    GPSSN_QUERY_STATS(GPSSN_TEST_MERGE)
#undef GPSSN_TEST_MERGE
  }
}

TEST(QueryStatsTest, ToStringPrintsEveryRowAsNameEqualsValue) {
  const QueryStats stats = DistinctStats(3);
  const std::string text = Spaced(stats.ToString());
#define GPSSN_TEST_PRINT(type, name, merge)                            \
  EXPECT_NE(text.find(Spaced(RowText(#name, stats.name))),             \
            std::string::npos)                                         \
      << RowText(#name, stats.name) << " missing from " << text;
  GPSSN_QUERY_STATS(GPSSN_TEST_PRINT)
#undef GPSSN_TEST_PRINT
}

}  // namespace
}  // namespace gpssn
