// Copyright 2026 The gpssn Authors.
//
// Database snapshots: persist a built GpssnDatabase so a process restart
// skips the expensive parts of the offline build. A gpssn-snapshot-v2 file
// stores the network (gpssn-v1 body), the selected pivot ids, the build
// options that shape the indexes, the distance backend with its CH witness
// limits, the distance cache capacity, and the per-POI sup_K / sub_K
// keyword sets (the n bounded 2·r_max ball queries that dominate build
// time). On load, pivot tables, tree shapes, and node aggregates are
// recomputed deterministically from the stored seed, each POI's
// B(o, r_max) with one bounded search of radius r_max, and a CH backend
// is rebuilt (the CH index path is not stored). Keyword sets must be
// strictly increasing and sub_K must be a subset of sup_K, or the load
// fails with IoError; so does a file of another snapshot version.

#ifndef GPSSN_CORE_SNAPSHOT_H_
#define GPSSN_CORE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/database.h"

namespace gpssn {

/// Writes a snapshot of `db` to `path`.
Status SaveSnapshot(const GpssnDatabase& db, const std::string& path);

/// Restores a database from a snapshot written by SaveSnapshot. Queries
/// against the restored database are identical to the original's.
Result<std::unique_ptr<GpssnDatabase>> LoadSnapshot(const std::string& path);

}  // namespace gpssn

#endif  // GPSSN_CORE_SNAPSHOT_H_
