#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/message.h"
#include "net/network.h"

namespace pjvm {
namespace {

TEST(MessageTest, ByteSizeCountsPayload) {
  Message msg;
  msg.table = "orders";  // 6 bytes
  msg.rows.push_back({Value{1}, Value{"abc"}});  // 8 + 4
  msg.rids = {1, 2};  // 16
  EXPECT_EQ(msg.ByteSize(), 16u + 6u + 12u + 16u);
}

TEST(MessageTest, KindNames) {
  EXPECT_STREQ(MessageKindToString(MessageKind::kTuples), "TUPLES");
  EXPECT_STREQ(MessageKindToString(MessageKind::kRidProbe), "RID_PROBE");
}

TEST(NetworkTest, CrossNodeSendChargesSender) {
  CostTracker cost(4);
  Network net(4, &cost);
  Message msg;
  msg.from = 1;
  msg.to = 3;
  msg.table = "t";
  ASSERT_TRUE(net.Send(msg).ok());
  EXPECT_EQ(cost.node(1).sends, 1u);
  EXPECT_EQ(cost.node(1).bytes_sent, msg.ByteSize());
  EXPECT_EQ(cost.node(3).sends, 0u);
  EXPECT_EQ(net.PairCount(1, 3), 1u);
  EXPECT_EQ(net.TotalBytes(), msg.ByteSize());
}

TEST(NetworkTest, SelfSendIsConceptualAndFree) {
  // The paper's dashed arrows: same-node "sends" cost nothing.
  CostTracker cost(4);
  Network net(4, &cost);
  Message msg;
  msg.from = 2;
  msg.to = 2;
  ASSERT_TRUE(net.Send(msg).ok());
  EXPECT_EQ(cost.node(2).sends, 0u);
  EXPECT_EQ(cost.node(2).bytes_sent, 0u);
  EXPECT_EQ(net.PairCount(2, 2), 1u);  // But counted as a message.
  EXPECT_EQ(net.TotalMessages(), 1u);
  EXPECT_EQ(net.TotalBytes(), msg.ByteSize());
}

TEST(NetworkTest, BroadcastChargesLSends) {
  // The naive method's model term: L*SEND including the self-copy.
  CostTracker cost(8);
  Network net(8, &cost);
  Message msg;
  msg.kind = MessageKind::kProbe;
  msg.table = "b";
  msg.rows.push_back({Value{7}});
  ASSERT_TRUE(net.Broadcast(3, msg).ok());
  EXPECT_EQ(cost.node(3).sends, 8u);
  EXPECT_EQ(cost.node(3).bytes_sent, 8 * msg.ByteSize());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(net.PairCount(3, i), 1u) << "node " << i;
    if (i != 3) {
      EXPECT_EQ(cost.node(i).sends, 0u) << "node " << i;
    }
  }
  EXPECT_EQ(net.TotalMessages(), 8u);
  EXPECT_EQ(net.TotalBytes(), 8 * msg.ByteSize());
}

TEST(NetworkTest, RejectsBadNodes) {
  CostTracker cost(2);
  Network net(2, &cost);
  Message msg;
  msg.from = -1;
  msg.to = 0;
  EXPECT_FALSE(net.Send(msg).ok());
  msg.from = 0;
  msg.to = 5;
  EXPECT_FALSE(net.Send(msg).ok());
  EXPECT_FALSE(net.Broadcast(9, Message{}).ok());
  EXPECT_FALSE(net.Broadcast(-1, Message{}).ok());
  // A rejected hop is neither charged nor counted.
  EXPECT_EQ(net.TotalMessages(), 0u);
  EXPECT_EQ(cost.TotalSends(), 0u);
}

TEST(NetworkTest, PairCountsAndTotals) {
  CostTracker cost(3);
  Network net(3, &cost);
  Message msg;
  msg.from = 0;
  msg.to = 1;
  ASSERT_TRUE(net.Send(msg).ok());
  ASSERT_TRUE(net.Send(msg).ok());
  msg.to = 2;
  ASSERT_TRUE(net.Send(msg).ok());
  EXPECT_EQ(net.PairCount(0, 1), 2u);
  EXPECT_EQ(net.PairCount(0, 2), 1u);
  EXPECT_EQ(net.PairCount(1, 0), 0u);
  EXPECT_EQ(net.TotalMessages(), 3u);
  EXPECT_EQ(net.TotalBytes(), 3 * msg.ByteSize());
  net.ResetCounters();
  EXPECT_EQ(net.TotalMessages(), 0u);
  EXPECT_EQ(net.TotalBytes(), 0u);
  EXPECT_EQ(net.PairCount(0, 1), 0u);
}

TEST(NetworkTest, ConcurrentSendsAccountExactly) {
  // Every maintenance thread accounts its own hops: the counters and the
  // SEND charges must sum exactly however the threads interleave.
  constexpr int kNodes = 4;
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  CostTracker cost(kNodes);
  Network net(kNodes, &cost);
  Message payload;
  payload.table = "t";
  payload.rows.push_back({Value{1}, Value{"xyz"}});
  const uint64_t bytes = payload.ByteSize();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int from = t % kNodes;
      for (int r = 0; r < kRounds; ++r) {
        if (r % 2 == 0) {
          Message msg = payload;
          msg.from = from;
          msg.to = (from + 1) % kNodes;
          EXPECT_TRUE(net.Send(msg).ok());
        } else {
          EXPECT_TRUE(net.Broadcast(from, payload).ok());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Per thread: kRounds/2 point sends (1 message each) and kRounds/2
  // broadcasts (kNodes messages each).
  const uint64_t per_thread = kRounds / 2 + (kRounds / 2) * kNodes;
  EXPECT_EQ(net.TotalMessages(), kThreads * per_thread);
  EXPECT_EQ(net.TotalBytes(), kThreads * per_thread * bytes);
  EXPECT_EQ(cost.TotalSends(), kThreads * per_thread);
  const uint64_t threads_per_node = kThreads / kNodes;
  for (int from = 0; from < kNodes; ++from) {
    for (int to = 0; to < kNodes; ++to) {
      uint64_t expected = threads_per_node * (kRounds / 2);  // broadcasts
      if (to == (from + 1) % kNodes) expected += threads_per_node * (kRounds / 2);
      EXPECT_EQ(net.PairCount(from, to), expected) << from << "->" << to;
    }
    EXPECT_EQ(cost.node(from).sends, threads_per_node * per_thread);
  }
}

}  // namespace
}  // namespace pjvm
