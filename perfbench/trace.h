// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed on the driving thread only, around calls the
// benchmark makes into the library's public API. Each span records its
// name, start and end (steady clock, nanoseconds since the tracer was
// created), the span that was open when it started (its parent) and the
// query it belongs to. Nothing touches the disk until WriteJson().

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open.
    int32_t parent = -1;  // Index into spans(); -1 for a root span.
    int64_t query = -1;   // -1 when the span belongs to no query.
  };

  /// Opens a span under the innermost open one; returns its id.
  int Begin(const char* name, int64_t query);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// Sum over every closed span named `name` of its duration, and of its
  /// self time (duration minus the time its direct children cover), in ms.
  double TotalMs(std::string_view name) const;
  double SelfMs(std::string_view name) const;
  size_t Count(std::string_view name) const;

  /// Writes every span (with its self time) plus a per-name summary.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Now() const;
  std::vector<int64_t> ChildNanos() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span ids.
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query)
      : tracer_(tracer), id_(tracer->Begin(name, query)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
