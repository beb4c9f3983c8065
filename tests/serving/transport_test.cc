// Reply-mailbox unit tests: MPMC delivery and blocking receive
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
  box.Send(1);
  box.Send(2);
  EXPECT_EQ(box.Recv(), 1u);
  EXPECT_EQ(box.Recv(), 2u);
}

TEST(MailboxTest, RecvBlocksUntilASendArrives) {
  Mailbox<uint64_t> box;
  std::atomic<bool> received{false};
  std::thread receiver([&] {
    EXPECT_EQ(box.Recv(), 7u);
    received.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(received.load());
  box.Send(7);
  receiver.join();
  EXPECT_TRUE(received.load());
}

TEST(MailboxTest, ConcurrentReceiversGetEveryMessageExactlyOnce) {
  // 4 receivers and 2 senders over 20k messages. Once the senders are
  // done, one end marker per receiver follows every message (the mailbox
  // is FIFO), so each receiver stops only after the queue is drained.
  constexpr int kSenders = 2;
  constexpr int kReceivers = 4;
  constexpr uint64_t kPerSender = 10000;
  constexpr uint64_t kTotal = kSenders * kPerSender;
  constexpr uint64_t kEnd = ~uint64_t{0};
  Mailbox<uint64_t> box;
  std::vector<std::vector<uint64_t>> got(kReceivers);
  std::vector<std::thread> receivers;
  for (int r = 0; r < kReceivers; ++r) {
    receivers.emplace_back([&box, &mine = got[r]] {
      for (uint64_t id = box.Recv(); id != kEnd; id = box.Recv()) {
        mine.push_back(id);
      }
    });
  }
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&box, s] {
      for (uint64_t i = 0; i < kPerSender; ++i) box.Send(s * kPerSender + i);
    });
  }
  for (std::thread& sender : senders) sender.join();
  for (int r = 0; r < kReceivers; ++r) box.Send(kEnd);
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

}  // namespace
}  // namespace gpssn::serving
