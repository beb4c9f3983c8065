#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace gpssn {

namespace {

// Nearest-rank percentile over an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx =
      static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::string BatchStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "queries=%llu ok=%llu found=%llu deadline=%llu cancelled=%llu "
      "failed=%llu wall=%.4fs qps=%.1f "
      "latency(ms) mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f "
      "cpu-total=%.4fs pairs=%llu page-ios=%llu "
      "phases(s) descent=%.4f ball=%.4f refine=%.4f exact-dist=%.4f "
      "dist-cache rows hit=%llu miss=%llu "
      "sched stolen=%llu",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(succeeded),
      static_cast<unsigned long long>(answers_found),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(failed), wall_seconds, throughput_qps,
      latency_mean_seconds * 1e3, latency_p50_seconds * 1e3,
      latency_p95_seconds * 1e3, latency_p99_seconds * 1e3,
      latency_max_seconds * 1e3, totals.cpu_seconds,
      static_cast<unsigned long long>(totals.pairs_examined),
      static_cast<unsigned long long>(totals.PageAccesses()),
      totals.descent_seconds, totals.ball_seconds, totals.refine_seconds,
      totals.exact_dist_seconds,
      static_cast<unsigned long long>(totals.dist_cache_row_hits),
      static_cast<unsigned long long>(totals.dist_cache_row_misses),
      static_cast<unsigned long long>(scheduler_tasks_stolen));
  return buf;
}

void GpssnBatchExecutor::WorkerLane::Reset() {
  totals = QueryStats();
  latencies.clear();
  succeeded = answers_found = deadline_exceeded = cancelled = failed = 0;
}

GpssnBatchExecutor::GpssnBatchExecutor(const PoiIndex* poi_index,
                                       const SocialIndex* social_index,
                                       const BatchExecutorOptions& options)
    : options_(options),
      lanes_(std::max(options.num_workers, 1)),
      scheduler_(options.num_workers) {
  processors_.reserve(scheduler_.num_threads());
  for (int w = 0; w < scheduler_.num_threads(); ++w) {
    processors_.push_back(
        std::make_unique<GpssnProcessor>(poi_index, social_index));
  }
}

GpssnBatchExecutor::~GpssnBatchExecutor() {
  // The scheduler destructor drains remaining tasks; they only touch the
  // processors/lanes/slots, all of which outlive `scheduler_` (last
  // member).
}

size_t GpssnBatchExecutor::Submit(const GpssnQuery& query) {
  return Submit(query, options_.default_deadline_seconds);
}

size_t GpssnBatchExecutor::Submit(const GpssnQuery& query,
                                  double deadline_seconds, Callback callback) {
  if (results_.empty()) {
    batch_timer_.Restart();
    sched_base_ = scheduler_.GetStats();
  }
  const size_t index = results_.size();
  results_.push_back(BatchQueryResult{});
  BatchQueryResult* slot = &results_.back();
  slot->query = query;

  QueryDeadline deadline;  // Armed at submit time: queueing counts.
  if (deadline_seconds > 0.0) deadline = QueryDeadline::After(deadline_seconds);
  WallTimer submit_timer;
  // Deadline-armed queries enter the injector earliest-deadline-first.
  const TaskPriority priority = deadline.armed()
                                    ? TaskPriority::DeadlineAt(deadline.at())
                                    : TaskPriority::None();
  scheduler_.Submit(
      [this, slot, deadline, submit_timer,
       callback = std::move(callback)](int worker) {
        RunOne(worker, slot, deadline, submit_timer, callback);
      },
      priority);
  return index;
}

void GpssnBatchExecutor::RunOne(int worker, BatchQueryResult* slot,
                                QueryDeadline deadline, WallTimer submit_timer,
                                const Callback& callback) {
  QueryOptions options = options_.query;
  options.deadline = deadline;
  options.cancel = &cancel_;

  Result<GpssnAnswer> result =
      processors_[worker]->Execute(slot->query, options, &slot->stats);
  slot->worker = worker;
  if (result.ok()) {
    slot->answer = *std::move(result);
    slot->status = Status::OK();
  } else {
    slot->status = result.status();
  }
  slot->latency_seconds = submit_timer.ElapsedSeconds();

  WorkerLane& lane = lanes_[worker];
  lane.totals.MergeFrom(slot->stats);
  lane.latencies.push_back(slot->latency_seconds);
  if (slot->status.ok()) {
    ++lane.succeeded;
    if (slot->answer.found) ++lane.answers_found;
  } else if (slot->status.IsDeadlineExceeded()) {
    ++lane.deadline_exceeded;
  } else if (slot->status.IsCancelled()) {
    ++lane.cancelled;
  } else {
    ++lane.failed;
  }
  if (callback) callback(*slot);
}

std::vector<BatchQueryResult> GpssnBatchExecutor::Wait(BatchStats* stats) {
  scheduler_.WaitAll();
  const double wall = results_.empty() ? 0.0 : batch_timer_.ElapsedSeconds();

  if (stats != nullptr) {
    *stats = BatchStats();
    stats->queries = results_.size();
    stats->wall_seconds = wall;
    const TaskScheduler::Stats sched = scheduler_.GetStats();
    stats->scheduler_tasks_stolen = sched.tasks_stolen - sched_base_.tasks_stolen;
    std::vector<double> latencies;
    for (WorkerLane& lane : lanes_) {
      stats->totals.MergeFrom(lane.totals);
      stats->succeeded += lane.succeeded;
      stats->answers_found += lane.answers_found;
      stats->deadline_exceeded += lane.deadline_exceeded;
      stats->cancelled += lane.cancelled;
      stats->failed += lane.failed;
      latencies.insert(latencies.end(), lane.latencies.begin(),
                       lane.latencies.end());
    }
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      double sum = 0.0;
      for (double v : latencies) sum += v;
      stats->latency_mean_seconds = sum / static_cast<double>(latencies.size());
      stats->latency_p50_seconds = Percentile(latencies, 0.50);
      stats->latency_p95_seconds = Percentile(latencies, 0.95);
      stats->latency_p99_seconds = Percentile(latencies, 0.99);
      stats->latency_max_seconds = latencies.back();
    }
    if (wall > 0.0) {
      stats->throughput_qps = static_cast<double>(stats->queries) / wall;
    }
  }

  std::vector<BatchQueryResult> out;
  out.reserve(results_.size());
  for (BatchQueryResult& r : results_) out.push_back(std::move(r));
  results_.clear();
  for (WorkerLane& lane : lanes_) lane.Reset();
  cancel_.store(false, std::memory_order_relaxed);  // gpssn-lint: relaxed(flag reset before workers observe the batch)
  return out;
}

std::vector<BatchQueryResult> GpssnBatchExecutor::ExecuteAll(
    std::span<const GpssnQuery> queries, BatchStats* stats) {
  for (const GpssnQuery& query : queries) Submit(query);
  return Wait(stats);
}

}  // namespace gpssn
