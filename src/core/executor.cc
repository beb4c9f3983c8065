#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>
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
  std::ostringstream out;
  out << "queries=" << queries << " ok=" << succeeded
      << " found=" << answers_found << " deadline=" << deadline_exceeded
      << " cancelled=" << cancelled << " failed=" << failed
      << " stolen=" << scheduler_tasks_stolen << std::fixed
      << std::setprecision(4) << " wall=" << wall_seconds << "s"
      << std::setprecision(1) << " qps=" << throughput_qps
      << std::setprecision(3) << " latency(ms) mean="
      << latency_mean_seconds * 1e3 << " p50=" << latency_p50_seconds * 1e3
      << " p95=" << latency_p95_seconds * 1e3
      << " p99=" << latency_p99_seconds * 1e3
      << " max=" << latency_max_seconds * 1e3
      << " totals: " << totals.ToString();
  return out.str();
}

void BatchTally::Add(const BatchQueryResult& result) {
  ++sums_.queries;
  if (result.status.ok()) {
    ++sums_.succeeded;
    if (result.answer.found) ++sums_.answers_found;
  } else if (result.status.IsDeadlineExceeded()) {
    ++sums_.deadline_exceeded;
  } else if (result.status.IsCancelled()) {
    ++sums_.cancelled;
  } else {
    ++sums_.failed;
  }
  sums_.totals.MergeFrom(result.stats);
  latencies_.push_back(result.latency_seconds);
}

void BatchTally::MergeFrom(const BatchTally& other) {
  sums_.queries += other.sums_.queries;
  sums_.succeeded += other.sums_.succeeded;
  sums_.answers_found += other.sums_.answers_found;
  sums_.deadline_exceeded += other.sums_.deadline_exceeded;
  sums_.cancelled += other.sums_.cancelled;
  sums_.failed += other.sums_.failed;
  sums_.totals.MergeFrom(other.sums_.totals);
  latencies_.insert(latencies_.end(), other.latencies_.begin(),
                    other.latencies_.end());
}

BatchStats BatchTally::Finish(double wall_seconds) {
  BatchStats stats = sums_;
  stats.wall_seconds = wall_seconds;
  if (wall_seconds > 0.0) {
    stats.throughput_qps = static_cast<double>(stats.queries) / wall_seconds;
  }
  if (!latencies_.empty()) {
    std::sort(latencies_.begin(), latencies_.end());
    stats.latency_mean_seconds =
        std::accumulate(latencies_.begin(), latencies_.end(), 0.0) /
        static_cast<double>(latencies_.size());
    stats.latency_p50_seconds = Percentile(latencies_, 0.50);
    stats.latency_p95_seconds = Percentile(latencies_, 0.95);
    stats.latency_p99_seconds = Percentile(latencies_, 0.99);
    stats.latency_max_seconds = latencies_.back();
  }
  return stats;
}

GpssnBatchExecutor::GpssnBatchExecutor(const PoiIndex* poi_index,
                                       const SocialIndex* social_index,
                                       const BatchExecutorOptions& options)
    : options_(options), scheduler_(std::max(options.num_workers, 1)) {
  lanes_.resize(scheduler_.num_threads());
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

size_t GpssnBatchExecutor::Submit(const GpssnQuery& query,
                                  double deadline_seconds, Callback callback) {
  if (results_.empty()) {
    batch_timer_.Restart();
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

  lanes_[worker].tally.Add(*slot);
  if (callback) callback(*slot);
}

std::vector<BatchQueryResult> GpssnBatchExecutor::Wait(BatchStats* stats) {
  scheduler_.WaitAll();
  const double wall = results_.empty() ? 0.0 : batch_timer_.ElapsedSeconds();

  BatchTally batch;
  for (WorkerLane& lane : lanes_) {
    batch.MergeFrom(lane.tally);
    lane.tally = BatchTally();
  }
  if (stats != nullptr) *stats = batch.Finish(wall);

  std::vector<BatchQueryResult> out;
  out.reserve(results_.size());
  for (BatchQueryResult& r : results_) out.push_back(std::move(r));
  results_.clear();
  cancel_.store(false, std::memory_order_relaxed);  // gpssn-lint: relaxed(flag reset before workers observe the batch)
  return out;
}

std::vector<BatchQueryResult> GpssnBatchExecutor::ExecuteAll(
    std::span<const GpssnQuery> queries, BatchStats* stats) {
  for (const GpssnQuery& query : queries) Submit(query);
  return Wait(stats);
}

}  // namespace gpssn
