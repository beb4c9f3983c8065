// Copyright 2026 The gpssn Authors.
//
// Transport abstraction of the sharded serving layer (DESIGN.md §12). The
// coordinator and the shards exchange TransportMessages (wire.h) through
// endpoint mailboxes; this file provides the in-process implementation —
// unbounded MPMC queues on the capability-annotated sync layer. Because the
// payloads are already flat bytes, a socket transport is a drop-in: same
// envelope, same payload, different carrier.
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
#include <deque>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"
#include "serving/wire.h"

namespace gpssn::serving {

/// Unbounded MPMC queue of TransportMessages. Send never blocks, Recv
/// blocks while empty; both return false once the mailbox is closed (Recv
/// drains buffered messages first).
class Mailbox {
 public:
  Mailbox() = default;
  GPSSN_DISALLOW_COPY_AND_MOVE(Mailbox);

  /// Enqueues `message`. Returns false (message dropped) if the mailbox is
  /// closed.
  bool Send(TransportMessage message) GPSSN_EXCLUDES(mu_);

  /// Dequeues into `*out`, blocking while the mailbox is empty. Returns
  /// false only when the mailbox is closed AND drained.
  bool Recv(TransportMessage* out) GPSSN_EXCLUDES(mu_);

  /// Closes the mailbox: wakes every blocked receiver. Messages already
  /// buffered remain receivable. Idempotent.
  void Close() GPSSN_EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar not_empty_;
  std::deque<TransportMessage> queue_ GPSSN_GUARDED_BY(mu_);
  bool closed_ GPSSN_GUARDED_BY(mu_) = false;
};

/// The in-process transport fabric: `num_shards` shard inboxes plus the
/// coordinator inbox. Thread-safe; the per-message cost is one lock
/// acquisition and one vector move per hop.
class InProcessTransport {
 public:
  explicit InProcessTransport(int num_shards);
  GPSSN_DISALLOW_COPY_AND_MOVE(InProcessTransport);

  int num_shards() const { return num_shards_; }

  /// Coordinator -> shard request. False if the fabric is closed.
  bool SendToShard(int shard, TransportMessage message);
  /// Shard -> coordinator reply. False if the fabric is closed.
  bool SendToCoordinator(TransportMessage message);

  /// Blocking receive on shard `shard`'s inbox (its workers' loop).
  bool RecvAtShard(int shard, TransportMessage* out);
  /// Blocking receive on the coordinator inbox (the event loop).
  bool RecvAtCoordinator(TransportMessage* out);

  /// Closes every mailbox; all blocked parties wake and observe false.
  void Close();

  /// Total messages accepted across all mailboxes (the `shard_msgs` stat).
  uint64_t messages_sent() const {
    return messages_sent_.load(
        std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  }

 private:
  const int num_shards_;
  std::vector<std::unique_ptr<Mailbox>> shard_inboxes_;
  Mailbox coordinator_inbox_;
  std::atomic<uint64_t> messages_sent_{0};
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_TRANSPORT_H_
