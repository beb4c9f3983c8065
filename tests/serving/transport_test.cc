// Transport-layer unit tests: mailbox MPMC delivery and close semantics,
// and the in-process fabric's routing and message count
// (src/serving/transport.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serving/transport.h"

namespace gpssn::serving {
namespace {

TEST(MailboxTest, FifoDelivery) {
  Mailbox<uint64_t> box;
  ASSERT_TRUE(box.Send(1));
  ASSERT_TRUE(box.Send(2));
  uint64_t out = 0;
  ASSERT_TRUE(box.Recv(&out));
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(box.Recv(&out));
  EXPECT_EQ(out, 2u);
}

TEST(MailboxTest, CloseWakesBlockedReceiverAndFailsSends) {
  Mailbox<uint64_t> box;
  std::thread closer([&] { box.Close(); });
  uint64_t out = 0;
  EXPECT_FALSE(box.Recv(&out));  // Wakes on Close, empty queue.
  closer.join();
  EXPECT_FALSE(box.Send(1));
}

TEST(MailboxTest, CloseDrainsBufferedMessagesFirst) {
  Mailbox<uint64_t> box;
  ASSERT_TRUE(box.Send(7));
  box.Close();
  uint64_t out = 0;
  ASSERT_TRUE(box.Recv(&out));  // Buffered message still delivered.
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(box.Recv(&out));  // Then closed-and-drained.
}

TEST(MailboxTest, ConcurrentReceiversGetEveryMessageExactlyOnce) {
  // A shard's workers all read its one inbox: 4 receivers and 2 senders
  // over 20k messages. Then Close must wake every receiver left blocked
  // on the drained mailbox.
  constexpr int kSenders = 2;
  constexpr int kReceivers = 4;
  constexpr uint64_t kPerSender = 10000;
  constexpr uint64_t kTotal = kSenders * kPerSender;
  Mailbox<uint64_t> box;
  std::atomic<uint64_t> received{0};
  std::vector<std::vector<uint64_t>> got(kReceivers);
  std::vector<std::thread> receivers;
  for (int r = 0; r < kReceivers; ++r) {
    receivers.emplace_back([&box, &received, &mine = got[r]] {
      uint64_t out = 0;
      while (box.Recv(&out)) {
        mine.push_back(out);
        ++received;
      }
    });
  }
  std::atomic<int> failed_sends{0};
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&box, &failed_sends, s] {
      for (uint64_t i = 0; i < kPerSender; ++i) {
        if (!box.Send(s * kPerSender + i)) ++failed_sends;
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_EQ(failed_sends.load(), 0);
  while (received.load() < kTotal) std::this_thread::yield();
  // Every receiver is back in Recv on an empty mailbox (or about to be).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.Close();
  for (std::thread& receiver : receivers) receiver.join();

  std::vector<int> times(kTotal, 0);
  for (const std::vector<uint64_t>& ids : got) {
    for (const uint64_t id : ids) {
      ASSERT_LT(id, kTotal);
      ++times[id];
    }
  }
  for (uint64_t id = 0; id < kTotal; ++id) {
    ASSERT_EQ(times[id], 1) << "message " << id;
  }
}

TEST(InProcessTransportTest, RoutesAndCounts) {
  InProcessTransport transport(2);
  ShardRequest request;
  request.query_id = 1;
  ASSERT_TRUE(transport.SendToShard(0, request));
  request.query_id = 2;
  ASSERT_TRUE(transport.SendToShard(1, request));
  ShardReply reply;
  reply.query_id = 3;
  ASSERT_TRUE(transport.SendToCoordinator(reply));
  EXPECT_EQ(transport.messages_sent(), 3u);
  ASSERT_TRUE(transport.RecvAtShard(0, &request));
  EXPECT_EQ(request.query_id, 1u);
  ASSERT_TRUE(transport.RecvAtShard(1, &request));
  EXPECT_EQ(request.query_id, 2u);
  ASSERT_TRUE(transport.RecvAtCoordinator(&reply));
  EXPECT_EQ(reply.query_id, 3u);
  transport.Close();
  EXPECT_FALSE(transport.SendToShard(0, request));
  EXPECT_FALSE(transport.RecvAtCoordinator(&reply));
}

}  // namespace
}  // namespace gpssn::serving
