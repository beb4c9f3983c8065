// Copyright 2026 The gpssn Authors.
//
// Index partitioner for the sharded serving layer (DESIGN.md §12): splits
// the candidate space of a GpssnDatabase into N disjoint ShardScopes —
// users by social partition-tree subtree, POIs by R*-tree region — so each
// shard's gather stage descends only its own slice of I_S / I_R.
//
// Partitioning invariants (COVERAGE is checked by MakeServingPartition,
// all three by tests/serving/partitioner_test.cc):
//   * COVERAGE: every user / POI is under exactly one shard's scope.
//   * ORDER: concatenating the shards' scopes in shard order visits the
//     index leaves in the same left-to-right order a single-node descent
//     does — this is what makes the coordinator's merged candidate list
//     (and therefore group enumeration and tie-breaking) byte-identical to
//     the single-node run.
//   * BALANCE: contiguous frontier nodes are packed greedily against the
//     ideal per-shard weight (subtree user / POI counts), so shards get
//     within one subtree of an even split. Trailing shards may own an
//     EMPTY scope when the tree has fewer frontier nodes than shards
//     (an empty scope is a valid idle shard).

#ifndef GPSSN_SERVING_PARTITION_H_
#define GPSSN_SERVING_PARTITION_H_

#include <vector>

#include "common/result.h"
#include "core/query.h"
#include "index/poi_index.h"
#include "index/social_index.h"

namespace gpssn::serving {

struct ServingPartition {
  /// Per-shard index scopes, in shard order (size = num_shards).
  std::vector<ShardScope> scopes;
};

/// Splits both indexes into `num_shards` scopes. The frontier is grown
/// level-synchronously from each root (internal nodes replaced by their
/// children, leaves kept in place — preserving left-to-right order) until
/// it holds at least `num_shards` nodes or only leaves remain, then packed
/// contiguously into shards balanced by subtree weight. One walk over the
/// scopes then checks COVERAGE. Returns InvalidArgument for
/// num_shards < 1, and Internal if a user or POI is in no scope or in two.
Result<ServingPartition> MakeServingPartition(const SocialIndex& social,
                                              const PoiIndex& poi,
                                              int num_shards);

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_PARTITION_H_
