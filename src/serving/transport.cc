#include "serving/transport.h"

#include <utility>

namespace gpssn::serving {

InProcessTransport::InProcessTransport(int num_shards) {
  shard_inboxes_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shard_inboxes_.push_back(std::make_unique<Mailbox<ShardRequest>>());
  }
}

bool InProcessTransport::SendToShard(int shard, ShardRequest request) {
  if (!shard_inboxes_[shard]->Send(std::move(request))) return false;
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  return true;
}

bool InProcessTransport::SendToCoordinator(ShardReply reply) {
  if (!coordinator_inbox_.Send(std::move(reply))) return false;
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  return true;
}

bool InProcessTransport::RecvAtShard(int shard, ShardRequest* out) {
  return shard_inboxes_[shard]->Recv(out);
}

bool InProcessTransport::RecvAtCoordinator(ShardReply* out) {
  return coordinator_inbox_.Recv(out);
}

void InProcessTransport::Close() {
  for (auto& inbox : shard_inboxes_) inbox->Close();
  coordinator_inbox_.Close();
}

}  // namespace gpssn::serving
