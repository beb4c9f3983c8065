#include "core/stats.h"

#include <cstddef>
#include <sstream>

namespace gpssn {

namespace {

void MergeSum(uint64_t* into, uint64_t from) { *into += from; }
void MergeSum(double* into, double from) { *into += from; }
void MergeSum(IoStats* into, const IoStats& from) {
  into->logical_accesses += from.logical_accesses;
  into->page_misses += from.page_misses;
}
void MergeOr(bool* into, bool from) { *into = *into || from; }

// Appends ` name=value`; doubles print as %.6g (the stream default).
template <typename T>
void AppendRow(std::ostringstream* out, const std::string& name,
               const T& value) {
  *out << ' ' << name << '=' << value;
}
void AppendRow(std::ostringstream* out, const std::string& name,
               const IoStats& value) {
  AppendRow(out, name + ".page_misses", value.page_misses);
  AppendRow(out, name + ".logical_accesses", value.logical_accesses);
}

// A member declared outside GPSSN_QUERY_STATS fails the build: T{init...}
// compiles while there are at most as many initializers as T has members
// (sizeof would miss a member that fits in padding).
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <typename T, typename... Init>
constexpr size_t CountMembers(Init... init) {
  if constexpr (requires { T{init..., AnyMember{}}; }) {
    return CountMembers<T>(init..., AnyMember{});
  } else {
    return sizeof...(Init);
  }
}

#define GPSSN_STATS_COUNT(type, name, merge) +1
static_assert(CountMembers<QueryStats>() ==
                  0 GPSSN_QUERY_STATS(GPSSN_STATS_COUNT),
              "declare every QueryStats member as a GPSSN_QUERY_STATS row");
#undef GPSSN_STATS_COUNT

}  // namespace

void QueryStats::MergeFrom(const QueryStats& other) {
#define GPSSN_STATS_MERGE(type, name, merge) \
  Merge##merge(&this->name, other.name);
  GPSSN_QUERY_STATS(GPSSN_STATS_MERGE)
#undef GPSSN_STATS_MERGE
}

std::string QueryStats::ToString() const {
  std::ostringstream out;
#define GPSSN_STATS_PRINT(type, name, merge) AppendRow(&out, #name, name);
  GPSSN_QUERY_STATS(GPSSN_STATS_PRINT)
#undef GPSSN_STATS_PRINT
  return out.str().substr(1);
}

}  // namespace gpssn
