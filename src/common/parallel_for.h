// Copyright 2026 The gpssn Authors.
//
// Morselized parallel-for on top of TaskScheduler. Index preprocessing
// (parallel CH contraction rounds, ball-index bucket builds) needs a
// deterministic data-parallel loop: split [0, count) into fixed chunks,
// let idle scheduler workers claim chunks through the morsel-source
// registry, and have the CALLER run chunks too so a saturated (or 1-core)
// scheduler degrades to the serial loop with no queued helper tasks.
//
// Lane discipline: each participant claims a unique lane id (caller =
// lane 0, workers = 1..max_lanes-1) so the body can use per-lane scratch
// arenas without locking. The chunk cursor is the only shared state;
// bodies must write only lane-private or per-index data. ParallelFor returns only after every chunk has finished
// (Retire barrier), so the helper may live on the caller's stack.

#ifndef GPSSN_COMMON_PARALLEL_FOR_H_
#define GPSSN_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/task_scheduler.h"

namespace gpssn {

/// Runs `fn(lane, begin, end)` over chunk subranges of [0, count).
/// `scheduler == nullptr` (or max_lanes <= 1, or a single-chunk range)
/// runs everything inline on lane 0 — the parallel and serial paths claim
/// chunks in the same granularity, so a body that writes only per-index
/// outputs produces identical results at every worker count.
class ParallelFor final : public TaskScheduler::MorselSource {
 public:
  using ChunkFn = std::function<void(int lane, size_t begin, size_t end)>;

  ParallelFor(TaskScheduler* scheduler, int max_lanes, size_t count,
              size_t chunk, ChunkFn fn)
      : scheduler_(scheduler),
        max_lanes_(std::max(max_lanes, 1)),
        count_(count),
        chunk_(std::max<size_t>(chunk, 1)),
        fn_(std::move(fn)) {}

  GPSSN_DISALLOW_COPY_AND_MOVE(ParallelFor);

  /// Blocks until all chunks have run.
  void Run() {
    if (scheduler_ == nullptr || max_lanes_ <= 1 || count_ <= chunk_) {
      RunLane(0);
      return;
    }
    scheduler_->Publish(this);
    RunLane(0);
    scheduler_->Retire(this);
  }

  bool RunMorsels(int) override {
    const int lane = next_lane_.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane ids only need uniqueness, no ordering)
    if (lane >= max_lanes_) return false;
    RunLane(lane);
    return true;
  }

 private:
  void RunLane(int lane) {
    for (;;) {
      const size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);  // gpssn-lint: relaxed(chunk claim needs atomicity only; Retire is the barrier)
      if (begin >= count_) return;
      fn_(lane, begin, std::min(begin + chunk_, count_));
    }
  }

  TaskScheduler* scheduler_;
  const int max_lanes_;
  const size_t count_;
  const size_t chunk_;
  ChunkFn fn_;
  std::atomic<size_t> cursor_{0};
  std::atomic<int> next_lane_{1};  // Lane 0 is reserved for the caller.
};

/// Lane cap for a preprocessing ParallelFor: scheduler workers plus the
/// calling thread, optionally clamped by an options knob (0 = no clamp).
inline int PreprocessLaneCap(const TaskScheduler* scheduler, int clamp) {
  const int lanes = scheduler == nullptr ? 1 : scheduler->num_threads() + 1;
  return clamp > 0 ? std::min(lanes, clamp) : lanes;
}

}  // namespace gpssn

#endif  // GPSSN_COMMON_PARALLEL_FOR_H_
