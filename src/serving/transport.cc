#include "serving/transport.h"

#include <utility>

namespace gpssn::serving {

bool Mailbox::Send(TransportMessage message) {
  MutexLock lock(mu_);
  if (closed_) return false;
  queue_.push_back(std::move(message));
  not_empty_.NotifyOne();
  return true;
}

bool Mailbox::Recv(TransportMessage* out) {
  MutexLock lock(mu_);
  while (queue_.empty() && !closed_) {
    not_empty_.Wait(mu_);
  }
  if (queue_.empty()) return false;  // Closed and drained.
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Mailbox::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  not_empty_.NotifyAll();
}

InProcessTransport::InProcessTransport(int num_shards)
    : num_shards_(num_shards) {
  shard_inboxes_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shard_inboxes_.push_back(std::make_unique<Mailbox>());
  }
}

bool InProcessTransport::SendToShard(int shard, TransportMessage message) {
  if (!shard_inboxes_[shard]->Send(std::move(message))) return false;
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  return true;
}

bool InProcessTransport::SendToCoordinator(TransportMessage message) {
  if (!coordinator_inbox_.Send(std::move(message))) return false;
  messages_sent_.fetch_add(
      1, std::memory_order_relaxed);  // gpssn-lint: relaxed(monotone stat counter)
  return true;
}

bool InProcessTransport::RecvAtShard(int shard, TransportMessage* out) {
  return shard_inboxes_[shard]->Recv(out);
}

bool InProcessTransport::RecvAtCoordinator(TransportMessage* out) {
  return coordinator_inbox_.Recv(out);
}

void InProcessTransport::Close() {
  for (auto& inbox : shard_inboxes_) inbox->Close();
  coordinator_inbox_.Close();
}

}  // namespace gpssn::serving
