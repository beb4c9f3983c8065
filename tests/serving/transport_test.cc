// Transport-layer unit tests: mailbox MPMC delivery and close semantics,
// lossless encode/decode roundtrips of every serving wire message, and
// every truncation and single-byte flip of each (src/serving/transport.h,
// src/serving/wire.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "serving/transport.h"
#include "serving/wire.h"

namespace gpssn::serving {
namespace {

TransportMessage Msg(uint64_t query_id) {
  TransportMessage m;
  m.header.kind = static_cast<uint32_t>(MessageKind::kGatherRequest);
  m.header.query_id = query_id;
  return m;
}

// Every row of the GPSSN_QUERY_STATS table set to a value no other row
// holds, so a round-trip that drops or swaps a row shows.
void SetDistinct(uint64_t* v, int k) { *v = 100 + static_cast<uint64_t>(k); }
void SetDistinct(double* v, int k) { *v = 0.5 + k; }
void SetDistinct(bool* v, int /*k*/) { *v = true; }
void SetDistinct(IoStats* v, int k) {
  v->page_misses = 700 + static_cast<uint64_t>(k);
  v->logical_accesses = 900 + static_cast<uint64_t>(k);
}

QueryStats DistinctStats() {
  QueryStats stats;
  int k = 0;
#define GPSSN_TEST_FILL(type, name, merge, kind) SetDistinct(&stats.name, k++);
  GPSSN_QUERY_STATS(GPSSN_TEST_FILL)
#undef GPSSN_TEST_FILL
  return stats;
}

void ExpectRowEq(const char* name, const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.page_misses, want.page_misses) << name;
  EXPECT_EQ(got.logical_accesses, want.logical_accesses) << name;
}
template <typename T>
void ExpectRowEq(const char* name, const T& got, const T& want) {
  EXPECT_EQ(got, want) << name;
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want) {
#define GPSSN_TEST_ROW(type, name, merge, kind) \
  ExpectRowEq(#name, got.name, want.name);
  GPSSN_QUERY_STATS(GPSSN_TEST_ROW)
#undef GPSSN_TEST_ROW
}

TEST(MailboxTest, FifoDelivery) {
  Mailbox box;
  ASSERT_TRUE(box.Send(Msg(1)));
  ASSERT_TRUE(box.Send(Msg(2)));
  TransportMessage out;
  ASSERT_TRUE(box.Recv(&out));
  EXPECT_EQ(out.header.query_id, 1u);
  ASSERT_TRUE(box.Recv(&out));
  EXPECT_EQ(out.header.query_id, 2u);
}

TEST(MailboxTest, CloseWakesBlockedReceiverAndFailsSends) {
  Mailbox box;
  std::thread closer([&] { box.Close(); });
  TransportMessage out;
  EXPECT_FALSE(box.Recv(&out));  // Wakes on Close, empty queue.
  closer.join();
  EXPECT_FALSE(box.Send(Msg(1)));
}

TEST(MailboxTest, CloseDrainsBufferedMessagesFirst) {
  Mailbox box;
  ASSERT_TRUE(box.Send(Msg(7)));
  box.Close();
  TransportMessage out;
  ASSERT_TRUE(box.Recv(&out));  // Buffered message still delivered.
  EXPECT_EQ(out.header.query_id, 7u);
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
  Mailbox box;
  std::atomic<uint64_t> received{0};
  std::vector<std::vector<uint64_t>> got(kReceivers);
  std::vector<std::thread> receivers;
  for (int r = 0; r < kReceivers; ++r) {
    receivers.emplace_back([&box, &received, &mine = got[r]] {
      TransportMessage out;
      while (box.Recv(&out)) {
        mine.push_back(out.header.query_id);
        ++received;
      }
    });
  }
  std::atomic<int> failed_sends{0};
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&box, &failed_sends, s] {
      for (uint64_t i = 0; i < kPerSender; ++i) {
        if (!box.Send(Msg(s * kPerSender + i))) ++failed_sends;
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
  ASSERT_TRUE(transport.SendToShard(0, Msg(1)));
  ASSERT_TRUE(transport.SendToShard(1, Msg(2)));
  ASSERT_TRUE(transport.SendToCoordinator(Msg(3)));
  EXPECT_EQ(transport.messages_sent(), 3u);
  TransportMessage out;
  ASSERT_TRUE(transport.RecvAtShard(0, &out));
  EXPECT_EQ(out.header.query_id, 1u);
  ASSERT_TRUE(transport.RecvAtShard(1, &out));
  EXPECT_EQ(out.header.query_id, 2u);
  ASSERT_TRUE(transport.RecvAtCoordinator(&out));
  EXPECT_EQ(out.header.query_id, 3u);
  transport.Close();
  EXPECT_FALSE(transport.SendToShard(0, Msg(4)));
  EXPECT_FALSE(transport.RecvAtCoordinator(&out));
}

GpssnQuery SampleQuery() {
  GpssnQuery q;
  q.issuer = 17;
  q.tau = 4;
  q.gamma = 0.25;
  q.metric = InterestMetric::kJaccard;
  q.theta = 0.4;
  q.radius = 1.75;
  return q;
}

// One message of each kind, as the roundtrip and corruption tests use it.
GatherRequest SampleGather() {
  GatherRequest request;
  request.query = SampleQuery();
  request.deadline_seconds = 0.125;
  return request;
}

CandidatesReply SampleCandidates() {
  CandidatesReply reply;
  reply.candidates.users = {3, 1, 9};  // Traversal order, not sorted.
  reply.candidates.pois = {2, 5};
  reply.candidates.lower_bound = 0.375;
  reply.stats = DistinctStats();
  return reply;
}

RefineRequest SampleRefine() {
  RefineRequest request;
  request.query = SampleQuery();
  request.deadline_seconds = -1.0;
  request.incumbent = 2.5;
  request.centers = {4, 8, 15};
  request.groups = {{1, 2, 17, 30}, {1, 5, 17, 21}};
  return request;
}

AnswerReply SampleAnswer() {
  AnswerReply reply;
  reply.result.answer.found = true;
  reply.result.answer.users = {1, 2, 17};
  reply.result.answer.center = 8;
  reply.result.answer.pois = {6, 8, 9};
  reply.result.answer.max_dist = 1.625;
  reply.result.center_worst = 1.5;
  reply.result.group_index = 42;
  reply.stats = DistinctStats();
  return reply;
}

TEST(WireTest, GatherRequestRoundtrip) {
  auto decoded = DecodeGatherRequest(EncodeGatherRequest(SampleGather()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query.issuer, 17);
  EXPECT_EQ(decoded->query.tau, 4);
  EXPECT_EQ(decoded->query.metric, InterestMetric::kJaccard);
  EXPECT_EQ(decoded->query.gamma, 0.25);
  EXPECT_EQ(decoded->query.theta, 0.4);
  EXPECT_EQ(decoded->query.radius, 1.75);
  EXPECT_EQ(decoded->deadline_seconds, 0.125);
}

TEST(WireTest, CandidatesReplyRoundtrip) {
  const CandidatesReply reply = SampleCandidates();
  auto decoded = DecodeCandidatesReply(EncodeCandidatesReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->candidates.users, reply.candidates.users);
  EXPECT_EQ(decoded->candidates.pois, reply.candidates.pois);
  EXPECT_EQ(decoded->candidates.lower_bound, 0.375);
  ExpectSameStats(decoded->stats, reply.stats);
}

TEST(WireTest, RefineRequestRoundtrip) {
  const RefineRequest request = SampleRefine();
  auto decoded = DecodeRefineRequest(EncodeRefineRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->incumbent, 2.5);
  EXPECT_EQ(decoded->centers, request.centers);
  EXPECT_EQ(decoded->groups, request.groups);
  EXPECT_EQ(decoded->deadline_seconds, -1.0);
}

TEST(WireTest, AnswerReplyRoundtrip) {
  const AnswerReply reply = SampleAnswer();
  auto decoded = DecodeAnswerReply(EncodeAnswerReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->result.answer.found);
  EXPECT_EQ(decoded->result.answer.users, reply.result.answer.users);
  EXPECT_EQ(decoded->result.answer.center, 8);
  EXPECT_EQ(decoded->result.answer.pois, reply.result.answer.pois);
  EXPECT_EQ(decoded->result.answer.max_dist, 1.625);
  EXPECT_EQ(decoded->result.center_worst, 1.5);
  EXPECT_EQ(decoded->result.group_index, 42);
  ExpectSameStats(decoded->stats, reply.stats);
}

// One encoded sample of a message kind plus its decoder. The decoder
// returns whether `bytes` decoded; a message that decodes must be well
// formed: it re-encodes to exactly as many bytes (its counts describe the
// payload) and that encoding decodes too.
struct WireSample {
  const char* kind;
  std::vector<uint8_t> bytes;
  std::function<bool(std::span<const uint8_t>)> decode;
};

template <typename Message>
WireSample Sample(const char* kind, const Message& message,
                  std::vector<uint8_t> (*encode)(const Message&),
                  Result<Message> (*decode)(std::span<const uint8_t>)) {
  return {kind, encode(message), [=](std::span<const uint8_t> bytes) {
            Result<Message> decoded = decode(bytes);
            if (!decoded.ok()) {
              EXPECT_TRUE(decoded.status().IsInvalidArgument())
                  << kind << ": " << decoded.status().ToString();
              return false;
            }
            const std::vector<uint8_t> again = encode(*decoded);
            EXPECT_EQ(again.size(), bytes.size()) << kind;
            EXPECT_TRUE(decode(again).ok()) << kind;
            return true;
          }};
}

std::vector<WireSample> Samples() {
  return {Sample("gather", SampleGather(), &EncodeGatherRequest,
                 &DecodeGatherRequest),
          Sample("candidates", SampleCandidates(), &EncodeCandidatesReply,
                 &DecodeCandidatesReply),
          Sample("refine", SampleRefine(), &EncodeRefineRequest,
                 &DecodeRefineRequest),
          Sample("answer", SampleAnswer(), &EncodeAnswerReply,
                 &DecodeAnswerReply)};
}

TEST(WireTest, TruncatedPayloadsAreRejectedNotRead) {
  for (const WireSample& sample : Samples()) {
    ASSERT_TRUE(sample.decode(sample.bytes)) << sample.kind;
    for (size_t cut = 0; cut < sample.bytes.size(); ++cut) {
      EXPECT_FALSE(sample.decode(std::span(sample.bytes.data(), cut)))
          << sample.kind << " cut=" << cut;
    }
    // Trailing garbage is as malformed as missing bytes.
    std::vector<uint8_t> longer = sample.bytes;
    longer.push_back(0);
    EXPECT_FALSE(sample.decode(longer)) << sample.kind;
  }
}

TEST(WireTest, FlippedBytesDecodeToErrorsOrWellFormedMessages) {
  for (const WireSample& sample : Samples()) {
    for (size_t at = 0; at < sample.bytes.size(); ++at) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> flipped = sample.bytes;
        flipped[at] ^= mask;
        EXPECT_NO_THROW(sample.decode(flipped))
            << sample.kind << " byte=" << at << " mask=" << int{mask};
      }
    }
  }
}

TEST(WireTest, StatsBoolRowsHoldZeroOrOne) {
  CandidatesReply reply;
  reply.candidates.users = {3, 1, 9};
  std::vector<uint8_t> bytes = EncodeCandidatesReply(reply);
  const size_t at = sizeof(WireCandidatesHeader) + 3 * sizeof(int32_t) +
                    offsetof(QueryStats, truncated);
  bytes[at] = 1;
  ASSERT_TRUE(DecodeCandidatesReply(bytes).ok());
  EXPECT_TRUE(DecodeCandidatesReply(bytes)->stats.truncated);
  bytes[at] = 2;  // Undefined to read back as a bool.
  EXPECT_TRUE(DecodeCandidatesReply(bytes).status().IsInvalidArgument());
}

TEST(WireTest, RefineGroupsAreCheckedAgainstThePayloadBeforeAllocating) {
  auto with_num_groups = [](std::vector<uint8_t> bytes, uint32_t num_groups) {
    WireRefineHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.num_groups = num_groups;
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
  };
  RefineRequest request;
  request.query = SampleQuery();
  request.centers = {4};
  request.groups = {{1, 2, 17, 30}};
  const std::vector<uint8_t> bytes = EncodeRefineRequest(request);
  ASSERT_TRUE(DecodeRefineRequest(bytes).ok());
  // ~4·10^9 groups claimed by a 100-byte payload.
  EXPECT_TRUE(DecodeRefineRequest(with_num_groups(bytes, 0xFFFFFFF0u))
                  .status()
                  .IsInvalidArgument());
  // A zero group size (τ = 0 on the wire too) describes no bytes at all.
  request.query.tau = 0;
  request.groups = {{}, {}};
  const std::vector<uint8_t> empty = EncodeRefineRequest(request);
  EXPECT_TRUE(DecodeRefineRequest(empty).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeRefineRequest(with_num_groups(empty, 0xFFFFFFF0u))
                  .status()
                  .IsInvalidArgument());
}

TEST(WireTest, StatusCodesSurviveTheWire) {
  EXPECT_TRUE(StatusFromWire(0).ok());
  EXPECT_TRUE(StatusFromWire(static_cast<int32_t>(StatusCode::kCancelled))
                  .IsCancelled());
  EXPECT_TRUE(
      StatusFromWire(static_cast<int32_t>(StatusCode::kDeadlineExceeded))
          .IsDeadlineExceeded());
  EXPECT_TRUE(StatusFromWire(static_cast<int32_t>(StatusCode::kInvalidArgument))
                  .IsInvalidArgument());
  EXPECT_EQ(StatusFromWire(999).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace gpssn::serving
