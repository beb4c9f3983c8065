// Copyright 2026 The gpssn Authors.
//
// ShardProcess: one serving shard (DESIGN.md §12). Owns its slice of the
// candidate space (a ShardScope from the partitioner), its worker threads
// with one GpssnProcessor each, and its own DistanceCache — the same
// per-node resources a standalone GpssnDatabase instance would own — over
// the shared immutable indexes and distance backend. Every worker reads
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
#include <memory>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "core/query.h"
#include "roadnet/distance_cache.h"
#include "serving/transport.h"

namespace gpssn::serving {

struct ShardConfig {
  int shard_id = 0;
  /// The index subtrees this shard owns (from MakeServingPartition).
  ShardScope scope;
  /// Base processor options; the shard layers per-request deadline/cancel
  /// and its own distance cache on top. `distance_backend` selects the
  /// shared engine (CH or built-in Dijkstra) exactly as on the single-node
  /// path.
  QueryOptions query;
  /// Worker threads (= processors); values below 1 run one.
  int num_workers = 1;
  /// Item budget of the shard-private DistanceCache; 0 disables caching.
  size_t distance_cache_entries = 1u << 18;
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
  std::unique_ptr<DistanceCache> distance_cache_;
  // Last member: joined before the state above dies.
  std::vector<std::thread> workers_;
};

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_SHARD_H_
