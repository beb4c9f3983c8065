#include "serving/shard.h"

#include <algorithm>
#include <utility>

namespace gpssn::serving {

ShardProcess::ShardProcess(const ShardConfig& config,
                           InProcessTransport* transport)
    : config_(config), transport_(transport) {
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
  ShardRequest request;
  while (transport_->RecvAtShard(config_.shard_id, &request)) {
    Handle(&processor, request);
  }
}

void ShardProcess::Handle(GpssnProcessor* processor,
                          const ShardRequest& request) {
  QueryOptions options = config_.query;
  options.cancel = config_.cancel;
  options.deadline = request.deadline;

  ShardReply reply;
  reply.shard = config_.shard_id;
  reply.query_id = request.query_id;
  switch (request.kind) {
    case ShardRequest::Kind::kGather: {
      auto candidates = processor->GatherCandidates(
          request.query, options, config_.scope, &reply.stats);
      if (candidates.ok()) {
        reply.candidates = std::move(*candidates);
      } else {
        reply.status = candidates.status();
      }
      break;
    }
    case ShardRequest::Kind::kRefine: {
      auto answer = processor->RefineCandidates(
          request.query, options, request.centers, *request.groups,
          request.incumbent, &reply.stats);
      if (answer.ok()) {
        reply.answer = std::move(*answer);
      } else {
        reply.status = answer.status();
      }
      break;
    }
  }
  // A false return means the fabric is closed — the coordinator is gone
  // and nobody is waiting for this reply.
  (void)transport_->SendToCoordinator(std::move(reply));
}

}  // namespace gpssn::serving
