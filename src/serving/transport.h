// Copyright 2026 The gpssn Authors.
//
// Messages of the sharded serving layer (DESIGN.md §12). The coordinator
// and the shards' stages run in one process over the same immutable
// indexes, so they exchange typed messages: the coordinator submits each
// ShardRequest as one task on the cluster's worker pool, and the task
// moves its ShardReply into the coordinator's reply mailbox. Nothing is
// encoded; a socket transport would encode these two structs at the
// socket boundary.
//
// The mailbox is an unbounded MPMC queue on the capability-annotated sync
// layer. Send never blocks: what is outstanding is bounded by the
// coordinator's max_inflight window plus the stale replies of queries it
// already completed.

#ifndef GPSSN_SERVING_TRANSPORT_H_
#define GPSSN_SERVING_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/query.h"

namespace gpssn::serving {

/// Coordinator -> shard: run the Gather or the Refine stage of one query
/// over shard `shard`'s scope.
struct ShardRequest {
  enum class Kind { kGather, kRefine };
  Kind kind = Kind::kGather;
  int shard = -1;
  uint64_t query_id = 0;  // Coordinator-assigned, never reused.
  GpssnQuery query;
  /// The coordinator's own deadline, so time the request waits in the
  /// pool's queue counts against it.
  QueryDeadline deadline;
  // Refine only: the global incumbent, this shard's candidate centers, and
  // the query's planned group list, which all its refine requests share.
  double incumbent = kInfDistance;
  std::vector<PoiId> centers;
  std::shared_ptr<const std::vector<std::vector<UserId>>> groups;
};

/// Shard -> coordinator: the stage's status and, when it is OK, the
/// shard's gather candidates or its refine answer, with the stage's stats.
/// Every request gets a reply, so the coordinator may block on its
/// mailbox; stale replies are dropped by `query_id`.
struct ShardReply {
  int shard = -1;
  uint64_t query_id = 0;
  Status status;
  ShardCandidates candidates;  // Gather.
  ShardRefineResult answer;    // Refine.
  QueryStats stats;
};

/// Unbounded MPMC queue. Send never blocks; Recv blocks while empty.
template <typename Message>
class Mailbox {
 public:
  Mailbox() = default;
  GPSSN_DISALLOW_COPY_AND_MOVE(Mailbox);

  void Send(Message message) GPSSN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    queue_.push_back(std::move(message));
    not_empty_.NotifyOne();
  }

  /// Dequeues the oldest message, blocking while the mailbox is empty.
  Message Recv() GPSSN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (queue_.empty()) not_empty_.Wait(mu_);
    Message out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

 private:
  Mutex mu_;
  CondVar not_empty_;
  std::deque<Message> queue_ GPSSN_GUARDED_BY(mu_);
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_TRANSPORT_H_
