#include "trace.h"

#include <cstdio>
#include <map>

#include "common/macros.h"

namespace perfbench {

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name, int64_t query) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query;
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  // Stamp last, so the bookkeeping above is not charged to the span.
  spans_[id].start_ns = Now();
  return id;
}

void Tracer::End(int id) {
  const int64_t now = Now();
  GPSSN_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  spans_[id].end_ns = now;
}

std::vector<int64_t> Tracer::ChildNanos() const {
  // Children of one parent run one after another on the driving thread,
  // so their durations never overlap and simply add up.
  std::vector<int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child[s.parent] += s.end_ns - s.start_ns;
    }
  }
  return child;
}

double Tracer::TotalMs(std::string_view name) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-6;
}

double Tracer::SelfMs(std::string_view name) const {
  const std::vector<int64_t> child = ChildNanos();
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns >= 0 && name == s.name) {
      total += s.end_ns - s.start_ns - child[i];
    }
  }
  return static_cast<double>(total) * 1e-6;
}

size_t Tracer::Count(std::string_view name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += (s.end_ns >= 0 && name == s.name);
  return n;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> child = ChildNanos();
  struct Sum {
    size_t count = 0;
    int64_t total = 0;
    int64_t self = 0;
  };
  std::map<std::string_view, Sum> summary;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    Sum& sum = summary[s.name];
    ++sum.count;
    sum.total += dur;
    sum.self += dur - child[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                 "\"query\": %lld}",
                 i == 0 ? "" : ",\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(dur - child[i]), s.parent,
                 static_cast<long long>(s.query));
  }
  std::fprintf(f, "\n], \"summary\": {");
  bool first = true;
  for (const auto& [name, sum] : summary) {
    std::fprintf(f, "%s\n  \"%.*s\": {\"count\": %zu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", static_cast<int>(name.size()), name.data(),
                 sum.count, static_cast<double>(sum.total) * 1e-6,
                 static_cast<double>(sum.self) * 1e-6);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
