#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/network.h"
#include "obs/trace.h"
#include "tests/view_test_util.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

TEST(MessageTest, ByteSizeCountsPayload) {
  const Row row = {Value{1}, Value{"abc"}};  // 8 + 4
  // Header 16, "orders" 6, the row 12, two rids 16.
  EXPECT_EQ(HopBytes("orders", {&row, 1}, /*rids=*/2), 16u + 6u + 12u + 16u);
  EXPECT_EQ(HopBytes("t", {}), 17u);
}

TEST(NetworkTest, CrossNodeSendChargesSender) {
  CostTracker cost(4);
  Network net(4, &cost);
  const size_t bytes = HopBytes("t", {});
  ASSERT_TRUE(net.Send(1, 3, bytes).ok());
  EXPECT_EQ(cost.node(1).sends, 1u);
  EXPECT_EQ(cost.node(1).bytes_sent, bytes);
  EXPECT_EQ(cost.node(3).sends, 0u);
  EXPECT_EQ(net.TotalMessages(), 1u);
  EXPECT_EQ(net.TotalBytes(), bytes);
}

TEST(NetworkTest, SelfSendIsConceptualAndFree) {
  // The paper's dashed arrows: same-node "sends" cost nothing.
  CostTracker cost(4);
  Network net(4, &cost);
  const size_t bytes = HopBytes("", {});
  ASSERT_TRUE(net.Send(2, 2, bytes).ok());
  EXPECT_EQ(cost.node(2).sends, 0u);
  EXPECT_EQ(cost.node(2).bytes_sent, 0u);
  EXPECT_EQ(net.TotalMessages(), 1u);  // But counted as a message.
  EXPECT_EQ(net.TotalBytes(), bytes);
}

TEST(NetworkTest, BroadcastChargesLSends) {
  // The naive method's model term: L*SEND including the self-copy.
  CostTracker cost(8);
  Network net(8, &cost);
  const Row row = {Value{7}};
  const size_t bytes = HopBytes("b", {&row, 1});
  ASSERT_TRUE(net.Broadcast(3, bytes).ok());
  EXPECT_EQ(cost.node(3).sends, 8u);
  EXPECT_EQ(cost.node(3).bytes_sent, 8 * bytes);
  for (int i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_EQ(cost.node(i).sends, 0u) << "node " << i;
    }
  }
  EXPECT_EQ(net.TotalMessages(), 8u);
  EXPECT_EQ(net.TotalBytes(), 8 * bytes);
}

TEST(NetworkTest, RejectsBadNodes) {
  CostTracker cost(2);
  Network net(2, &cost);
  EXPECT_FALSE(net.Send(-1, 0, 16).ok());
  EXPECT_FALSE(net.Send(0, 5, 16).ok());
  EXPECT_FALSE(net.Broadcast(9, 16).ok());
  EXPECT_FALSE(net.Broadcast(-1, 16).ok());
  // A rejected hop is neither charged nor counted.
  EXPECT_EQ(net.TotalMessages(), 0u);
  EXPECT_EQ(cost.TotalSends(), 0u);
}

TEST(NetworkTest, TotalsAndSenderCharges) {
  CostTracker cost(3);
  Network net(3, &cost);
  const size_t bytes = HopBytes("", {});
  ASSERT_TRUE(net.Send(0, 1, bytes).ok());
  ASSERT_TRUE(net.Send(0, 1, bytes).ok());
  ASSERT_TRUE(net.Send(0, 2, bytes).ok());
  EXPECT_EQ(cost.node(0).sends, 3u);
  EXPECT_EQ(cost.node(0).bytes_sent, 3 * bytes);
  EXPECT_EQ(cost.node(1).sends, 0u);
  EXPECT_EQ(net.TotalMessages(), 3u);
  EXPECT_EQ(net.TotalBytes(), 3 * bytes);
}

TEST(NetworkTest, ConcurrentSendsAccountExactly) {
  // Every maintenance thread accounts its own hops: the counters and the
  // SEND charges must sum exactly however the threads interleave.
  constexpr int kNodes = 4;
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  CostTracker cost(kNodes);
  Network net(kNodes, &cost);
  const Row row = {Value{1}, Value{"xyz"}};
  const uint64_t bytes = HopBytes("t", {&row, 1});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int from = t % kNodes;
      for (int r = 0; r < kRounds; ++r) {
        if (r % 2 == 0) {
          EXPECT_TRUE(net.Send(from, (from + 1) % kNodes, bytes).ok());
        } else {
          EXPECT_TRUE(net.Broadcast(from, bytes).ok());
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
    EXPECT_EQ(cost.node(from).sends, threads_per_node * per_thread);
    EXPECT_EQ(cost.node(from).bytes_sent,
              threads_per_node * per_thread * bytes);
  }
}

// ------------------------------------------------ Interconnect golden values

// Hop totals of one A insert followed by one B delete on the paper's model
// view (A join B on c = d) at L = 4, from an empty interconnect, and the
// maintenance phases the two deltas ran.
struct HopTotals {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::vector<uint64_t> sends;
  std::vector<uint64_t> bytes_sent;
  std::set<std::string> phases;
};

HopTotals RunModelDeltas(MaintenanceMethod method, bool merged,
                         int64_t b_keys, int64_t fanout, int rows_per_page) {
  SystemConfig cfg = TwoTableFixture::Config(4, rows_per_page);
  cfg.merged_ar_storage = merged;
  TwoTableFixture f(cfg, b_keys, fanout);
  for (int64_t i = 0; i < 8; ++i) {
    f.sys->Insert("A", f.NextARow(i % b_keys)).Check();
  }
  // Partitioned on the join attribute, so the merged layout has a cluster.
  JoinViewDef def = f.MakeView("JV", /*partition_on_a_attr=*/false);
  def.partition_on = ColumnRef{"A", "c"};
  f.manager->RegisterView(def, method).Check();
  EXPECT_EQ(f.sys->network().TotalMessages(), 0u);
  f.sys->cost().Reset();
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  EXPECT_TRUE(f.manager->InsertRow("A", f.NextARow(1)).ok());
  EXPECT_TRUE(f.manager->DeleteRow("B", {Value{0}, Value{0}, Value{0}}).ok());
  Tracer::Global().Disable();
  EXPECT_TRUE(f.manager->CheckAllConsistent().ok());
  HopTotals totals;
  totals.messages = f.sys->network().TotalMessages();
  totals.bytes = f.sys->network().TotalBytes();
  for (int i = 0; i < 4; ++i) {
    totals.sends.push_back(f.sys->cost().node(i).sends);
    totals.bytes_sent.push_back(f.sys->cost().node(i).bytes_sent);
  }
  for (const TraceSpan& span : Tracer::Global().Snapshot()) {
    if (std::string(span.category) == "phase") totals.phases.insert(span.name);
  }
  Tracer::Global().Clear();
  return totals;
}

void ExpectTotals(const HopTotals& got, uint64_t messages, uint64_t bytes,
                  const std::vector<uint64_t>& sends,
                  const std::vector<uint64_t>& bytes_sent,
                  const std::set<std::string>& phases) {
  EXPECT_EQ(got.messages, messages);
  EXPECT_EQ(got.bytes, bytes);
  EXPECT_EQ(got.sends, sends);
  EXPECT_EQ(got.bytes_sent, bytes_sent);
  EXPECT_EQ(got.phases, phases);
}

// Exact hop counts and bytes per method. Any change here moves the paper's
// SEND accounting and must say why.
TEST(InterconnectGoldenTest, ModelViewHopsPerMethod) {
  ExpectTotals(RunModelDeltas(MaintenanceMethod::kNaive, false, 20, 2, 4), 11,
               718, {0, 0, 5, 4}, {0, 0, 326, 260}, {"broadcast_step"});
  ExpectTotals(
      RunModelDeltas(MaintenanceMethod::kAuxRelation, false, 20, 2, 4), 3,
      228, {0, 0, 1, 0}, {0, 0, 48, 0}, {"routed_step"});
  ExpectTotals(RunModelDeltas(MaintenanceMethod::kAuxRelation, true, 20, 2, 4),
               3, 228, {0, 0, 1, 0}, {0, 0, 48, 0}, {"merged_routed_step"});
  ExpectTotals(
      RunModelDeltas(MaintenanceMethod::kGlobalIndex, false, 20, 2, 4), 7, 465,
      {0, 1, 2, 0}, {0, 73, 114, 0}, {"gi_fetch", "gi_lookup"});
  // Two B keys of 20 rows on one page per node: scanning beats the index
  // plan, so one of the two GI steps falls back to the broadcast join.
  ExpectTotals(
      RunModelDeltas(MaintenanceMethod::kGlobalIndex, false, 2, 20, 100), 15,
      1813, {2, 4, 3, 3}, {420, 260, 468, 364},
      {"broadcast_step", "gi_fetch", "gi_lookup"});
}

}  // namespace
}  // namespace pjvm
