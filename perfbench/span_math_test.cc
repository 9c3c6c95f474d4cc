// Tests of the benchmark's span arithmetic on hand-built span lists.

#include "span_math.h"

#include <gtest/gtest.h>

#include <vector>

namespace pjvm::perfbench {
namespace {

TraceSpan Span(const char* name, const char* category, int tid, uint64_t start,
               uint64_t end, int depth) {
  TraceSpan s;
  s.name = name;
  s.category = category;
  s.tid = tid;
  s.start_ns = start;
  s.dur_ns = end - start;
  s.depth = depth;
  return s;
}

TraceSpan Send(int tid, uint64_t at) {
  TraceSpan s;
  s.name = "send";
  s.category = "net";
  s.kind = TraceSpan::Kind::kInstant;
  s.tid = tid;
  s.start_ns = at;
  return s;
}

// One maintenance transaction on client thread 1, recorded in end order:
//   maintain_txn        [0, 100)
//     base_update       [10, 30)   with wal_append [12, 20)
//     structure_update  [30, 40)
//     maintain_view     [40, 90)   with routed_step [50, 80)
//     commit_2pc        [90, 99)   with prepare [92, 95)
std::vector<TraceSpan> OneTxn() {
  return {
      Span("wal_append", "txn", 1, 12, 20, 2),
      Span("base_update", "view", 1, 10, 30, 1),
      Span("structure_update", "view", 1, 30, 40, 1),
      Span("routed_step", "phase", 1, 50, 80, 2),
      Span("maintain_view", "view", 1, 40, 90, 1),
      Span("prepare", "txn", 1, 92, 95, 2),
      Span("commit_2pc", "txn", 1, 90, 99, 1),
      Span("maintain_txn", "view", 1, 0, 100, 0),
  };
}

TEST(SpanMathTest, SelfTimeSubtractsNestedSameThreadChildren) {
  const LayerSums s = AnalyzeSpans(OneTxn());
  EXPECT_EQ(s.deltas, 1u);
  EXPECT_DOUBLE_EQ(s.txn_ns, 100);
  EXPECT_DOUBLE_EQ(s.txn_self_ns, 100 - 20 - 10 - 50 - 9);
  EXPECT_DOUBLE_EQ(s.base_update_self_ns, 20 - 8);
  EXPECT_DOUBLE_EQ(s.structure_update_self_ns, 10);
  EXPECT_DOUBLE_EQ(s.maintain_self_ns, 50 - 30);
  EXPECT_DOUBLE_EQ(s.step_ns, 30);
  EXPECT_DOUBLE_EQ(s.step_self_ns, 30);
  EXPECT_DOUBLE_EQ(s.commit_self_ns, 9 - 3);
  // Spans without a layer of their own.
  EXPECT_DOUBLE_EQ(s.other_self_ns, 8 + 3);
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_EQ(s.incomplete_txns, 0u);
}

TEST(SpanMathTest, NestingHandlesEqualStartsAndOutOfOrderRecording) {
  // Recorded in end order (children first), parent and child share a start.
  std::vector<TraceSpan> spans = {
      Span("routed_step", "phase", 1, 10, 20, 1),
      Span("maintain_view", "view", 1, 10, 30, 0),
  };
  const Nesting nest = NestSpans(spans);
  EXPECT_EQ(nest.root[0], 1);
  EXPECT_EQ(nest.root[1], 1);
  EXPECT_EQ(nest.children[1], std::vector<int>{0});
  EXPECT_EQ(nest.self_ns[1], 10u);
  EXPECT_EQ(nest.self_ns[0], 10u);
}

TEST(SpanMathTest, DispatchGapsOfFanOutWithOverlappingWorkerTasks) {
  // routed_step on client thread 1 sends at 110, then two workers run
  // overlapping tasks: [125, 180) on thread 3 and [130, 170) on thread 2.
  std::vector<TraceSpan> spans = {
      Span("maintain_txn", "view", 1, 0, 300, 0),
      Span("maintain_view", "view", 1, 90, 250, 1),
      Span("routed_step", "phase", 1, 100, 200, 2),
      Send(1, 105),
      Send(1, 110),
      Send(1, 190),  // after the first task: not a dispatch event
      Span("probe_node", "task", 2, 130, 170, 0),
      Span("probe_node", "task", 3, 125, 180, 0),
  };
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_EQ(s.fanouts, 1u);
  EXPECT_EQ(s.tasks, 2u);
  // Head gap 125 - 110, tail gap 200 - 180.
  EXPECT_DOUBLE_EQ(s.dispatch_ns, 15 + 20);
  EXPECT_DOUBLE_EQ(s.task_ns, 40 + 55);
  EXPECT_DOUBLE_EQ(s.task_max_ns, 55);
  // Worker tasks do not reduce the client-side self times.
  EXPECT_DOUBLE_EQ(s.step_self_ns, 100);
}

TEST(SpanMathTest, DispatchHeadStartsAfterAChildSpanThatPrecedesTheTasks) {
  // base_update deletes a row on the client, then fans out inserts.
  std::vector<TraceSpan> spans = {
      Span("maintain_txn", "view", 1, 0, 100, 0),
      Span("base_update", "view", 1, 0, 60, 1),
      Span("delete_exact", "client", 1, 5, 20, 2),
      Span("insert_batch", "task", 4, 26, 50, 0),
  };
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_DOUBLE_EQ(s.dispatch_ns, (26 - 20) + (60 - 50));
  EXPECT_EQ(s.tasks, 1u);
}

TEST(SpanMathTest, AttributedPlusUnattributedReconcilesWithTxnTime) {
  std::vector<TraceSpan> spans = OneTxn();
  // An unnamed client-side span inside the transaction lands in the
  // unattributed remainder, not in a layer.
  spans.push_back(Span("select_eq", "client", 1, 41, 46, 2));
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_DOUBLE_EQ(s.maintain_self_ns, 50 - 30 - 5);
  EXPECT_DOUBLE_EQ(s.other_self_ns, 8 + 3 + 5);
  EXPECT_DOUBLE_EQ(s.AttributedNs(), 12 + 10 + 15 + 30 + 6);
  EXPECT_DOUBLE_EQ(s.UnattributedNs(), 100 - s.AttributedNs());
  EXPECT_DOUBLE_EQ(s.UnattributedNs(), s.txn_self_ns + s.other_self_ns);
  EXPECT_LT(s.ReconcileError(), kReconcileTolerance);
}

TEST(SpanMathTest, TxnWithoutALayerSpanIsIncomplete) {
  std::vector<TraceSpan> spans = OneTxn();
  // Drop commit_2pc (and its child): the commit time would land in the
  // maintain_txn self time unnoticed.
  spans.erase(spans.begin() + 5, spans.begin() + 7);
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_EQ(s.deltas, 1u);
  EXPECT_EQ(s.incomplete_txns, 1u);
  EXPECT_LT(s.ReconcileError(), kReconcileTolerance);
}

TEST(SpanMathTest, ReconcileErrorFlagsOverlappingSiblings) {
  // Two siblings that overlap cannot both be nested children of one
  // parent: the telescoping sum then exceeds the parent's duration.
  std::vector<TraceSpan> spans = {
      Span("maintain_txn", "view", 1, 0, 100, 0),
      Span("base_update", "view", 1, 10, 60, 1),
      Span("structure_update", "view", 1, 50, 70, 1),
  };
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_GT(s.ReconcileError(), kReconcileTolerance);
}

TEST(SpanMathTest, SpansOutsideMaintenanceAreIgnored) {
  std::vector<TraceSpan> spans = OneTxn();
  // A client read with a worker fan-out, after the transaction.
  spans.push_back(Span("select_eq", "client", 1, 120, 160, 0));
  spans.push_back(Span("select_eq", "task", 2, 125, 150, 0));
  const LayerSums s = AnalyzeSpans(spans);
  EXPECT_EQ(s.deltas, 1u);
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_DOUBLE_EQ(s.dispatch_ns, 0);
}

TEST(SpanMathTest, LayerSumsAccumulate) {
  LayerSums a = AnalyzeSpans(OneTxn());
  const LayerSums b = a;
  a += b;
  EXPECT_EQ(a.deltas, 2u);
  EXPECT_DOUBLE_EQ(a.txn_ns, 200);
  EXPECT_DOUBLE_EQ(a.UnattributedNs(), 2 * b.UnattributedNs());
}

}  // namespace
}  // namespace pjvm::perfbench
