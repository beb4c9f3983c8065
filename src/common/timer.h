// Copyright 2026 The gpssn Authors.
//
// Lightweight wall-clock timer used by query statistics and benchmarks.

#ifndef GPSSN_COMMON_TIMER_H_
#define GPSSN_COMMON_TIMER_H_

#include <chrono>

namespace gpssn {

/// Monotonic stopwatch. Started on construction; ElapsedSeconds() may be
/// sampled repeatedly.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gpssn

#endif  // GPSSN_COMMON_TIMER_H_
