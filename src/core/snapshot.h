// Copyright 2026 The gpssn Authors.
//
// Database snapshots: persist a built GpssnDatabase as its inputs, so a
// restart builds the same database again. A gpssn-snapshot-v5 file stores
// the network (the gpssn-v2 body of ssn/serialize.h) and one `build` line
// with every build option the build reads: the pivot counts and whether
// Algorithm 1 selects them, r_min, r_max, the R*-tree fanout, the I_S leaf
// size and fanout, the seed, the distance backend with its CH witness
// limits, and the distance cache capacity. LoadSnapshot hands both to the
// public GpssnDatabase constructor; the build is deterministic, so the
// pivots, both indexes and every answer come back the same. Nothing
// derived is stored: parsing the network costs about as much as the build
// (DESIGN.md §9). The file is sealed like the network file: its last line,
// `checksum <16 hex digits>`, is the 64-bit FNV-1a of every byte before
// it, so any changed byte fails the load. A checksum is no seal, since
// whoever edits a file can recompute it, so the content is checked too:
// build options must be in range and the pivot counts must fit the
// network, or the load fails with IoError; so does a file of another
// snapshot version (v1 to v4 included), naming it.

#ifndef GPSSN_CORE_SNAPSHOT_H_
#define GPSSN_CORE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/database.h"

namespace gpssn {

/// Writes a snapshot of `db` to `path`.
Status SaveSnapshot(const GpssnDatabase& db, const std::string& path);

/// Restores a database from a snapshot written by SaveSnapshot: a fresh
/// build of the saved network under the saved options. Queries against the
/// restored database are identical to the original's.
Result<std::unique_ptr<GpssnDatabase>> LoadSnapshot(const std::string& path);

}  // namespace gpssn

#endif  // GPSSN_CORE_SNAPSHOT_H_
