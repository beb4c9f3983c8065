// Copyright 2026 The gpssn Authors.
//
// ShardProcess: one serving shard (DESIGN.md §12). Owns its slice of the
// candidate space (a ShardScope from the partitioner) and its worker
// threads with one GpssnProcessor each, over the shared immutable indexes,
// distance backend and distance cache of the process. Every worker reads
// the shard's transport inbox itself and handles each request it
// receives, so one shard serves up to num_workers in-flight queries
// concurrently (the coordinator pipelines a batch).
//
// Liveness contract: a shard ALWAYS replies — its candidates or answer, or
// the error status of the stage (invalid query, deadline, cancel) — so the
// coordinator may block on its inbox without timeouts. Once the transport
// closes, the workers handle what is still buffered in the inbox and exit;
// destruction joins them.

#ifndef GPSSN_SERVING_SHARD_H_
#define GPSSN_SERVING_SHARD_H_

#include <atomic>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "core/query.h"
#include "serving/transport.h"

namespace gpssn::serving {

struct ShardConfig {
  int shard_id = 0;
  /// The index subtrees this shard owns (from MakeServingPartition).
  ShardScope scope;
  /// Base processor options; the shard layers per-request deadline and
  /// cancel on top. `distance_backend` and `distance_cache` are shared by
  /// every shard (the coordinator fills in the database's defaults) and
  /// used exactly as on the single-node path; a shard has no cache of its
  /// own.
  QueryOptions query;
  /// Worker threads (= processors); values below 1 run one.
  int num_workers = 1;
  /// Shared immutable indexes (must outlive the shard).
  const PoiIndex* poi_index = nullptr;
  const SocialIndex* social_index = nullptr;
  /// Cluster-level cancel flag (ServingCluster::CancelAll); may be null.
  const std::atomic<bool>* cancel = nullptr;
};

class ShardProcess {
 public:
  /// Starts the worker threads immediately. `transport` must outlive the
  /// shard and must be Close()d before the shard is destroyed (that is
  /// what makes the workers exit).
  ShardProcess(const ShardConfig& config, InProcessTransport* transport);
  ~ShardProcess();

  GPSSN_DISALLOW_COPY_AND_MOVE(ShardProcess);

 private:
  void WorkerLoop();
  void Handle(GpssnProcessor* processor, const ShardRequest& request);

  const ShardConfig config_;
  InProcessTransport* const transport_;
  // Last member: joined before the state above dies.
  std::vector<std::thread> workers_;
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_SHARD_H_
