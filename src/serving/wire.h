// Copyright 2026 The gpssn Authors.
//
// Wire format of the sharded serving layer (DESIGN.md §12). Every message
// is a fixed-layout header struct followed by flat POD arrays, so the
// in-process transport and a future socket transport carry the SAME bytes:
// each header struct below is `gpssn-serialized` (trivially copyable,
// pinned size — enforced by scripts/lint.py rules serialized-struct and
// serving-wire). Multi-byte fields are host-endian; a socket transport
// between heterogeneous hosts would add byteswapping at the boundary.
//
// Message flow (coordinator <-> shard s, one query):
//
//   kGatherRequest  -> s   WireQuery
//   kCandidates     <- s   WireCandidatesHeader users[] pois[] QueryStats
//   kRefineRequest  -> s   WireRefineHeader WireQuery centers[] groups[]
//   kAnswer         <- s   WireAnswerHeader users[] pois[] QueryStats
//
// Replies carry a StatusCode in the envelope header; a non-OK reply has an
// empty payload. Stale replies (a shard answering after the coordinator
// abandoned the query) are identified — and dropped — by `query_id`.

#ifndef GPSSN_SERVING_WIRE_H_
#define GPSSN_SERVING_WIRE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "core/query.h"
#include "core/stats.h"

namespace gpssn::serving {

enum class MessageKind : uint32_t {
  kGatherRequest = 1,
  kCandidates = 2,
  kRefineRequest = 3,
  kAnswer = 4,
};

/// Transport envelope prefixed to every message.
// gpssn-serialized(bytes=32)
struct WireHeader {
  uint32_t kind = 0;        // MessageKind.
  int32_t shard = -1;       // Sender (replies) / receiver (requests).
  uint64_t query_id = 0;    // Coordinator-assigned, never reused.
  int32_t status_code = 0;  // StatusCode (replies; 0 = OK).
  uint32_t reserved = 0;
  uint64_t payload_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<WireHeader>,
              "WireHeader crosses the transport verbatim");
static_assert(sizeof(WireHeader) == 32,
              "WireHeader wire layout is fixed at 32 bytes");

/// Query parameters (Definition 5) plus the cooperative deadline, encoded
/// as seconds-remaining at send time (< 0 = unarmed). Re-arming on the
/// receiving side loses the request's transport latency — the shard's
/// deadline is never EARLIER than the coordinator's, so a query is never
/// spuriously expired by the transfer.
// gpssn-serialized(bytes=48)
struct WireQuery {
  int32_t issuer = -1;
  int32_t tau = 0;
  uint32_t metric = 0;  // InterestMetric.
  uint32_t reserved = 0;
  double gamma = 0.0;
  double theta = 0.0;
  double radius = 0.0;
  double deadline_seconds = -1.0;
};
static_assert(std::is_trivially_copyable_v<WireQuery>,
              "WireQuery crosses the transport verbatim");
static_assert(sizeof(WireQuery) == 48,
              "WireQuery wire layout is fixed at 48 bytes");

/// Gather (scatter-phase) reply: candidate users in I_S leaf-traversal
/// order, candidate POIs sorted ascending, and the shard's objective lower
/// bound. Followed by int32 users[num_users], int32 pois[num_pois], and a
/// QueryStats blob of stats_bytes.
// gpssn-serialized(bytes=24)
struct WireCandidatesHeader {
  uint32_t num_users = 0;
  uint32_t num_pois = 0;
  double lower_bound = 0.0;
  uint32_t stats_bytes = 0;
  uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<WireCandidatesHeader>,
              "WireCandidatesHeader crosses the transport verbatim");
static_assert(sizeof(WireCandidatesHeader) == 24,
              "WireCandidatesHeader wire layout is fixed at 24 bytes");

/// Refine request: the global incumbent plus this shard's candidate
/// centers and the coordinator's enumerated groups (each exactly
/// group_size users, flattened row-major). Followed by a WireQuery, int32
/// centers[num_centers], and int32 groups[num_groups * group_size].
// gpssn-serialized(bytes=32)
struct WireRefineHeader {
  uint32_t num_centers = 0;
  uint32_t num_groups = 0;
  uint32_t group_size = 0;
  uint32_t reserved = 0;
  double incumbent = 0.0;
  double reserved2 = 0.0;
};
static_assert(std::is_trivially_copyable_v<WireRefineHeader>,
              "WireRefineHeader crosses the transport verbatim");
static_assert(sizeof(WireRefineHeader) == 32,
              "WireRefineHeader wire layout is fixed at 32 bytes");

/// Refine reply: the shard's best answer (found = 0 when no candidate beat
/// the incumbent) plus its discovery rank (center_worst, group_index — see
/// ShardRefineResult). Followed by int32 users[num_users], int32
/// pois[num_pois], and a QueryStats blob of stats_bytes.
// gpssn-serialized(bytes=48)
struct WireAnswerHeader {
  uint32_t found = 0;
  int32_t center = -1;
  uint32_t num_users = 0;
  uint32_t num_pois = 0;
  double max_dist = 0.0;
  double center_worst = 0.0;
  int64_t group_index = -1;
  uint32_t stats_bytes = 0;
  uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<WireAnswerHeader>,
              "WireAnswerHeader crosses the transport verbatim");
static_assert(sizeof(WireAnswerHeader) == 48,
              "WireAnswerHeader wire layout is fixed at 48 bytes");

/// One transport message: envelope + serialized payload bytes.
struct TransportMessage {
  WireHeader header;
  std::vector<uint8_t> payload;
};

// --- Decoded request/reply forms -------------------------------------------

struct GatherRequest {
  GpssnQuery query;
  double deadline_seconds = -1.0;  // < 0 = unarmed.
};

struct CandidatesReply {
  ShardCandidates candidates;
  QueryStats stats;
};

struct RefineRequest {
  GpssnQuery query;
  double deadline_seconds = -1.0;
  double incumbent = 0.0;
  std::vector<PoiId> centers;
  std::vector<std::vector<UserId>> groups;
};

struct AnswerReply {
  ShardRefineResult result;
  QueryStats stats;
};

// --- Encode / decode --------------------------------------------------------
// Encoders produce the payload bytes; the caller fills the envelope.
// Decoders bounds-check every section and return InvalidArgument on a
// malformed payload (truncated, trailing bytes, a count the remaining
// bytes cannot hold — checked before allocating —, a zero group size, a
// stats size mismatch or a stats bool row other than 0 or 1).

std::vector<uint8_t> EncodeGatherRequest(const GatherRequest& request);
Result<GatherRequest> DecodeGatherRequest(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeCandidatesReply(const CandidatesReply& reply);
Result<CandidatesReply> DecodeCandidatesReply(
    std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeRefineRequest(const RefineRequest& request);
Result<RefineRequest> DecodeRefineRequest(std::span<const uint8_t> payload);

std::vector<uint8_t> EncodeAnswerReply(const AnswerReply& reply);
Result<AnswerReply> DecodeAnswerReply(std::span<const uint8_t> payload);

/// Reconstructs a Status from a wire status_code (0 = OK). Unknown codes
/// map to Internal.
Status StatusFromWire(int32_t code);

}  // namespace gpssn::serving

#endif  // GPSSN_SERVING_WIRE_H_
