#include "serving/wire.h"

#include <cstring>
#include <string>
#include <type_traits>

namespace gpssn::serving {
namespace {

// The per-shard QueryStats travels as one trivially-copyable blob; the
// decoder rejects a size mismatch (a skewed build on the far end of a
// socket would otherwise read garbage counters).
static_assert(std::is_trivially_copyable_v<QueryStats>,
              "QueryStats crosses the serving transport verbatim");

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

void AppendIds(std::vector<uint8_t>* out, const std::vector<int32_t>& ids) {
  const size_t offset = out->size();
  out->resize(offset + ids.size() * sizeof(int32_t));
  if (!ids.empty()) {
    std::memcpy(out->data() + offset, ids.data(),
                ids.size() * sizeof(int32_t));
  }
}

/// Bounds-checked sequential reader over a payload.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  template <typename T>
  bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadIds(size_t count, std::vector<int32_t>* out) {
    if (count > (data_.size() - pos_) / sizeof(int32_t)) return false;
    out->resize(count);
    if (count > 0) {
      std::memcpy(out->data(), data_.data() + pos_, count * sizeof(int32_t));
    }
    pos_ += count * sizeof(int32_t);
    return true;
  }

  /// Reads the QueryStats blob. A bool row holding a byte other than 0 or
  /// 1 would be undefined to read back, so it fails like a short read.
  bool ReadStats(QueryStats* out) {
    if (!ReadPod(out)) return false;
    bool valid = true;
#define GPSSN_WIRE_CHECK_BOOL(type, name, merge, kind) \
  if constexpr (std::is_same_v<type, bool>) {          \
    uint8_t byte = 0;                                  \
    std::memcpy(&byte, &out->name, sizeof(byte));      \
    valid = valid && byte <= 1;                        \
  }
    GPSSN_QUERY_STATS(GPSSN_WIRE_CHECK_BOOL)
#undef GPSSN_WIRE_CHECK_BOOL
    return valid;
  }

  size_t remaining() const { return data_.size() - pos_; }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

WireQuery ToWire(const GpssnQuery& query, double deadline_seconds) {
  WireQuery w;
  w.issuer = query.issuer;
  w.tau = query.tau;
  w.metric = static_cast<uint32_t>(query.metric);
  w.gamma = query.gamma;
  w.theta = query.theta;
  w.radius = query.radius;
  w.deadline_seconds = deadline_seconds;
  return w;
}

GpssnQuery FromWire(const WireQuery& w) {
  GpssnQuery query;
  query.issuer = w.issuer;
  query.tau = w.tau;
  query.metric = static_cast<InterestMetric>(w.metric);
  query.gamma = w.gamma;
  query.theta = w.theta;
  query.radius = w.radius;
  return query;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed payload: ") + what);
}

}  // namespace

std::vector<uint8_t> EncodeGatherRequest(const GatherRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(sizeof(WireQuery));
  AppendPod(&out, ToWire(request.query, request.deadline_seconds));
  return out;
}

Result<GatherRequest> DecodeGatherRequest(std::span<const uint8_t> payload) {
  Reader reader(payload);
  WireQuery w;
  if (!reader.ReadPod(&w) || !reader.AtEnd()) {
    return Malformed("gather request");
  }
  GatherRequest request;
  request.query = FromWire(w);
  request.deadline_seconds = w.deadline_seconds;
  return request;
}

std::vector<uint8_t> EncodeCandidatesReply(const CandidatesReply& reply) {
  WireCandidatesHeader h;
  h.num_users = static_cast<uint32_t>(reply.candidates.users.size());
  h.num_pois = static_cast<uint32_t>(reply.candidates.pois.size());
  h.lower_bound = reply.candidates.lower_bound;
  h.stats_bytes = static_cast<uint32_t>(sizeof(QueryStats));
  std::vector<uint8_t> out;
  out.reserve(sizeof(h) +
              (reply.candidates.users.size() + reply.candidates.pois.size()) *
                  sizeof(int32_t) +
              sizeof(QueryStats));
  AppendPod(&out, h);
  AppendIds(&out, reply.candidates.users);
  AppendIds(&out, reply.candidates.pois);
  AppendPod(&out, reply.stats);
  return out;
}

Result<CandidatesReply> DecodeCandidatesReply(
    std::span<const uint8_t> payload) {
  Reader reader(payload);
  WireCandidatesHeader h;
  if (!reader.ReadPod(&h)) return Malformed("candidates header");
  if (h.stats_bytes != sizeof(QueryStats)) {
    return Malformed("candidates stats size");
  }
  CandidatesReply reply;
  reply.candidates.lower_bound = h.lower_bound;
  if (!reader.ReadIds(h.num_users, &reply.candidates.users) ||
      !reader.ReadIds(h.num_pois, &reply.candidates.pois) ||
      !reader.ReadStats(&reply.stats) || !reader.AtEnd()) {
    return Malformed("candidates body");
  }
  return reply;
}

std::vector<uint8_t> EncodeRefineRequest(const RefineRequest& request) {
  WireRefineHeader h;
  h.num_centers = static_cast<uint32_t>(request.centers.size());
  h.num_groups = static_cast<uint32_t>(request.groups.size());
  h.group_size = static_cast<uint32_t>(request.query.tau);
  h.incumbent = request.incumbent;
  std::vector<uint8_t> out;
  out.reserve(sizeof(h) + sizeof(WireQuery) +
              (request.centers.size() +
               request.groups.size() * static_cast<size_t>(request.query.tau)) *
                  sizeof(int32_t));
  AppendPod(&out, h);
  AppendPod(&out, ToWire(request.query, request.deadline_seconds));
  AppendIds(&out, request.centers);
  for (const auto& group : request.groups) {
    AppendIds(&out, group);
  }
  return out;
}

Result<RefineRequest> DecodeRefineRequest(std::span<const uint8_t> payload) {
  Reader reader(payload);
  WireRefineHeader h;
  WireQuery w;
  if (!reader.ReadPod(&h) || !reader.ReadPod(&w)) {
    return Malformed("refine header");
  }
  RefineRequest request;
  request.query = FromWire(w);
  request.deadline_seconds = w.deadline_seconds;
  request.incumbent = h.incumbent;
  if (h.group_size == 0 ||
      h.group_size != static_cast<uint32_t>(request.query.tau)) {
    return Malformed("refine group size");
  }
  if (!reader.ReadIds(h.num_centers, &request.centers)) {
    return Malformed("refine centers");
  }
  // The groups must fit in the bytes left before any is allocated.
  if (uint64_t{h.num_groups} * h.group_size >
      reader.remaining() / sizeof(int32_t)) {
    return Malformed("refine groups");
  }
  request.groups.resize(h.num_groups);
  for (auto& group : request.groups) {
    if (!reader.ReadIds(h.group_size, &group)) {
      return Malformed("refine groups");
    }
  }
  if (!reader.AtEnd()) return Malformed("refine trailer");
  return request;
}

std::vector<uint8_t> EncodeAnswerReply(const AnswerReply& reply) {
  const GpssnAnswer& answer = reply.result.answer;
  WireAnswerHeader h;
  h.found = answer.found ? 1 : 0;
  h.center = answer.center;
  h.num_users = static_cast<uint32_t>(answer.users.size());
  h.num_pois = static_cast<uint32_t>(answer.pois.size());
  h.max_dist = answer.max_dist;
  h.center_worst = reply.result.center_worst;
  h.group_index = reply.result.group_index;
  h.stats_bytes = static_cast<uint32_t>(sizeof(QueryStats));
  std::vector<uint8_t> out;
  out.reserve(sizeof(h) +
              (answer.users.size() + answer.pois.size()) * sizeof(int32_t) +
              sizeof(QueryStats));
  AppendPod(&out, h);
  AppendIds(&out, answer.users);
  AppendIds(&out, answer.pois);
  AppendPod(&out, reply.stats);
  return out;
}

Result<AnswerReply> DecodeAnswerReply(std::span<const uint8_t> payload) {
  Reader reader(payload);
  WireAnswerHeader h;
  if (!reader.ReadPod(&h)) return Malformed("answer header");
  if (h.stats_bytes != sizeof(QueryStats)) {
    return Malformed("answer stats size");
  }
  AnswerReply reply;
  GpssnAnswer& answer = reply.result.answer;
  answer.found = h.found != 0;
  answer.center = h.center;
  answer.max_dist = h.max_dist;
  reply.result.center_worst = h.center_worst;
  reply.result.group_index = h.group_index;
  if (!reader.ReadIds(h.num_users, &answer.users) ||
      !reader.ReadIds(h.num_pois, &answer.pois) ||
      !reader.ReadStats(&reply.stats) || !reader.AtEnd()) {
    return Malformed("answer body");
  }
  return reply;
}

Status StatusFromWire(int32_t code) {
  const auto status_code = static_cast<StatusCode>(code);
  switch (status_code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kIoError:
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return Status(status_code,
                    std::string("shard reported ") +
                        StatusCodeName(status_code));
  }
  return Status::Internal("shard reported unknown status code");
}

}  // namespace gpssn::serving
