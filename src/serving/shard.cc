#include "serving/shard.h"

#include <algorithm>
#include <utility>

namespace gpssn::serving {

ShardProcess::ShardProcess(const ShardConfig& config,
                           InProcessTransport* transport)
    : config_(config), transport_(transport) {
  if (config_.distance_cache_entries > 0) {
    DistanceCacheOptions cache_options;
    cache_options.max_entries = config_.distance_cache_entries;
    distance_cache_ = std::make_unique<DistanceCache>(cache_options);
  }
  const int num_workers = std::max(config_.num_workers, 1);
  workers_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ShardProcess::~ShardProcess() {
  // The owner closed the transport, so each worker's Recv fails once the
  // inbox is drained (replies to the drained requests fail to send into
  // the closed fabric, which is fine).
  for (std::thread& worker : workers_) worker.join();
}

void ShardProcess::WorkerLoop() {
  GpssnProcessor processor(config_.poi_index, config_.social_index);
  TransportMessage message;
  while (transport_->RecvAtShard(config_.shard_id, &message)) {
    Handle(&processor, message);
  }
}

void ShardProcess::Reply(MessageKind kind, uint64_t query_id,
                         const Status& status, std::vector<uint8_t> payload) {
  TransportMessage reply;
  reply.header.kind = static_cast<uint32_t>(kind);
  reply.header.shard = config_.shard_id;
  reply.header.query_id = query_id;
  reply.header.status_code = static_cast<int32_t>(status.code());
  reply.payload = std::move(payload);
  reply.header.payload_bytes = reply.payload.size();
  // A false return means the fabric is closed — the coordinator is gone
  // and nobody is waiting for this reply.
  (void)transport_->SendToCoordinator(std::move(reply));
}

void ShardProcess::Handle(GpssnProcessor* processor,
                          const TransportMessage& message) {
  const uint64_t query_id = message.header.query_id;

  QueryOptions options = config_.query;
  options.distance_cache = distance_cache_.get();
  options.cancel = config_.cancel;

  auto arm = [&options](double deadline_seconds) {
    // Re-arming from seconds-remaining loses the request's transport
    // latency, so the shard's deadline is never EARLIER than the
    // coordinator's (the coordinator, not the shard, is the authority on
    // expiring a query).
    options.deadline = deadline_seconds >= 0.0
                           ? QueryDeadline::After(deadline_seconds)
                           : QueryDeadline();
  };

  switch (static_cast<MessageKind>(message.header.kind)) {
    case MessageKind::kGatherRequest: {
      auto request = DecodeGatherRequest(message.payload);
      if (!request.ok()) {
        Reply(MessageKind::kCandidates, query_id, request.status(), {});
        return;
      }
      arm(request->deadline_seconds);
      CandidatesReply reply;
      auto candidates = processor->GatherCandidates(
          request->query, options, config_.scope, &reply.stats);
      if (!candidates.ok()) {
        Reply(MessageKind::kCandidates, query_id, candidates.status(), {});
        return;
      }
      reply.candidates = std::move(*candidates);
      Reply(MessageKind::kCandidates, query_id, Status::OK(),
            EncodeCandidatesReply(reply));
      return;
    }
    case MessageKind::kRefineRequest: {
      auto request = DecodeRefineRequest(message.payload);
      if (!request.ok()) {
        Reply(MessageKind::kAnswer, query_id, request.status(), {});
        return;
      }
      arm(request->deadline_seconds);
      AnswerReply reply;
      auto result = processor->RefineCandidates(
          request->query, options, request->centers, request->groups,
          request->incumbent, &reply.stats);
      if (!result.ok()) {
        Reply(MessageKind::kAnswer, query_id, result.status(), {});
        return;
      }
      reply.result = std::move(*result);
      Reply(MessageKind::kAnswer, query_id, Status::OK(),
            EncodeAnswerReply(reply));
      return;
    }
    default:
      // A reply kind (or garbage) landed in a shard inbox; answer so the
      // coordinator never hangs on a miscounted gather.
      Reply(MessageKind::kAnswer, query_id,
            Status::InvalidArgument("unexpected message kind at shard"), {});
      return;
  }
}

}  // namespace gpssn::serving
