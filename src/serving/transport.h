// Copyright 2026 The gpssn Authors.
//
// Transport of the sharded serving layer (DESIGN.md §12). The coordinator
// and the shards are threads of one process over the same immutable
// indexes, so they exchange typed messages — ShardRequest one way,
// ShardReply the other — moved through endpoint mailboxes: unbounded MPMC
// queues on the capability-annotated sync layer. Nothing is encoded; a
// socket transport would encode these two structs at the socket boundary.
//
// Topology: one inbox per shard (coordinator -> shard requests, read by
// every worker of that shard) plus one coordinator inbox (shard ->
// coordinator replies, multi-producer). Close() tears the whole fabric
// down: blocked receivers wake up and observe `false`, which is the shard
// workers' exit signal.
//
// Send never blocks. A bounded inbox would deadlock: the coordinator
// blocks sending into a full shard inbox while that shard's workers block
// replying into the full coordinator inbox. What is outstanding is bounded
// instead by the coordinator's max_inflight window plus the stale replies
// of queries it already completed.

#ifndef GPSSN_SERVING_TRANSPORT_H_
#define GPSSN_SERVING_TRANSPORT_H_

#include <atomic>
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

/// Coordinator -> shard: run the Gather or the Refine stage of one query.
struct ShardRequest {
  enum class Kind { kGather, kRefine };
  Kind kind = Kind::kGather;
  uint64_t query_id = 0;  // Coordinator-assigned, never reused.
  GpssnQuery query;
  /// The coordinator's own deadline, so time the request waits in the
  /// shard's inbox counts against it.
  QueryDeadline deadline;
  // Refine only: the global incumbent, this shard's candidate centers, and
  // the query's planned group list, which all its refine requests share.
  double incumbent = kInfDistance;
  std::vector<PoiId> centers;
  std::shared_ptr<const std::vector<std::vector<UserId>>> groups;
};

/// Shard -> coordinator: the stage's status and, when it is OK, the
/// shard's gather candidates or its refine answer, with the stage's stats.
/// A shard replies to every request, so the coordinator may block on its
/// inbox; stale replies are dropped by `query_id`.
struct ShardReply {
  int shard = -1;
  uint64_t query_id = 0;
  Status status;
  ShardCandidates candidates;  // Gather.
  ShardRefineResult answer;    // Refine.
  QueryStats stats;
};

/// Unbounded MPMC queue. Send never blocks, Recv blocks while empty; both
/// return false once the mailbox is closed (Recv drains buffered messages
/// first).
template <typename Message>
class Mailbox {
 public:
  Mailbox() = default;
  GPSSN_DISALLOW_COPY_AND_MOVE(Mailbox);

  /// Enqueues `message`. Returns false (message dropped) if the mailbox is
  /// closed.
  bool Send(Message message) GPSSN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(message));
    not_empty_.NotifyOne();
    return true;
  }

  /// Dequeues into `*out`, blocking while the mailbox is empty. Returns
  /// false only when the mailbox is closed AND drained.
  bool Recv(Message* out) GPSSN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (queue_.empty() && !closed_) {
      not_empty_.Wait(mu_);
    }
    if (queue_.empty()) return false;  // Closed and drained.
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  /// Closes the mailbox: wakes every blocked receiver. Messages already
  /// buffered remain receivable. Idempotent.
  void Close() GPSSN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar not_empty_;
  std::deque<Message> queue_ GPSSN_GUARDED_BY(mu_);
  bool closed_ GPSSN_GUARDED_BY(mu_) = false;
};

/// The in-process transport fabric: `num_shards` shard inboxes plus the
/// coordinator inbox. Thread-safe; the per-message cost is one lock
/// acquisition and two moves per hop.
class InProcessTransport {
 public:
  explicit InProcessTransport(int num_shards);
  GPSSN_DISALLOW_COPY_AND_MOVE(InProcessTransport);

  /// Coordinator -> shard request. False if the fabric is closed.
  bool SendToShard(int shard, ShardRequest request);
  /// Shard -> coordinator reply. False if the fabric is closed.
  bool SendToCoordinator(ShardReply reply);

  /// Blocking receive on shard `shard`'s inbox (its workers' loop).
  bool RecvAtShard(int shard, ShardRequest* out);
  /// Blocking receive on the coordinator inbox (the event loop).
  bool RecvAtCoordinator(ShardReply* out);

  /// Closes every mailbox; all blocked parties wake and observe false.
  void Close();

  /// Total messages accepted across all mailboxes (the `shard_msgs` stat).
  uint64_t messages_sent() const {
    return messages_sent_.load(
        std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  }

 private:
  std::vector<std::unique_ptr<Mailbox<ShardRequest>>> shard_inboxes_;
  Mailbox<ShardReply> coordinator_inbox_;
  std::atomic<uint64_t> messages_sent_{0};
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_TRANSPORT_H_
