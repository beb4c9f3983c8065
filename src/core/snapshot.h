// Copyright 2026 The gpssn Authors.
//
// Database snapshots: persist a built GpssnDatabase so a process restart
// skips the expensive parts of the offline build. A gpssn-snapshot-v4 file
// stores the network (the gpssn-v2 body of ssn/serialize.h), the selected
// pivot ids, the build options that shape the indexes, the distance
// backend with its CH witness limits, the distance cache capacity, and the
// per-POI sup_K keyword sets (the n bounded 2·r_max ball queries that
// dominate build time). It is sealed like the network file: its last
// line, `checksum <16 hex digits>`, is the 64-bit FNV-1a of every byte
// before it, so any changed byte fails the load. On load,
// pivot tables, tree shapes, and node aggregates are recomputed
// deterministically from the stored seed, each POI's B(o, r_max) with one
// bounded search of radius r_max, and a CH backend's hierarchy is built
// again. A checksum is no seal, since whoever edits a file can recompute
// it, so the content is checked too: keyword sets must be strictly
// increasing and build options must be in range, or the load fails with
// IoError; so does a file of another snapshot version (v1 to v3 included),
// naming it.

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
