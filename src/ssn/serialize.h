// Copyright 2026 The gpssn Authors.
//
// Text (de)serialization of spatial-social networks, so generated datasets
// can be saved, inspected, and reloaded by tools and experiments.
//
// A gpssn-v2 network file is the magic line `gpssn-v2`, the network body
// (the road graph, the POIs, the users' interests and friendships, and
// their homes), and a last line `checksum <16 hex digits>`, the 64-bit
// FNV-1a of every byte before it. The database snapshot (core/snapshot.h)
// embeds the same body and is sealed the same way, by the helpers below.
// An FNV-1a step (xor a byte, multiply by an odd constant mod 2^64) is a
// bijection of the state, so changing any one byte changes the hash, and a
// truncated file ends in a line that is not the checksum of what precedes
// it: every such file fails to load with an IoError.

#ifndef GPSSN_SSN_SERIALIZE_H_
#define GPSSN_SSN_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "ssn/spatial_social_network.h"

namespace gpssn {

/// Writes `ssn` to `path` as a gpssn-v2 network file.
Status SaveSsn(const SpatialSocialNetwork& ssn, const std::string& path);

/// Reads a network written by SaveSsn. A file of another version (gpssn-v1
/// included) fails with an IoError naming it, and so does a file whose
/// checksum does not match, before anything is parsed. Validates the
/// result.
Result<SpatialSocialNetwork> LoadSsn(const std::string& path);

/// Stream variants (used by the database-snapshot format, which embeds a
/// network section): WriteSsnBody emits everything after the magic line
/// and before the checksum; ReadSsnBody consumes exactly that.
Status WriteSsnBody(std::ostream& out, const SpatialSocialNetwork& ssn);
Result<SpatialSocialNetwork> ReadSsnBody(std::istream& in);

/// `checksum <16 hex digits>` and a newline: the last line of a sealed
/// file whose other bytes are `text`.
std::string ChecksumLine(std::string_view text);

/// Writes `text` (which starts with its magic line) and its checksum line
/// to `path`.
Status WriteSealedFile(const std::string& path, std::string_view text);

/// Reads a file written by WriteSealedFile into `in`, positioned after the
/// magic. Checks the magic first, so a file of another version fails with
/// an IoError naming it, then the checksum line.
Status ReadSealedFile(const std::string& path, std::string_view magic,
                      std::stringstream* in);

}  // namespace gpssn

#endif  // GPSSN_SSN_SERIALIZE_H_
