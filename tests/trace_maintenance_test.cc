#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "sql/executor.h"
#include "tests/view_test_util.h"
#include "view/explain.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// End-to-end observability: EXPLAIN ANALYZE's per-transaction node
// breakdown must reproduce the paper's locality claims (Section 3.2), the
// trace's per-node task spans must show each method's fan-out shape, and
// tracing must never perturb the cost accounting.

/// Reset the global tracer around each test (it is process-wide state).
class TraceMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

// ---------------------------------------------- EXPLAIN ANALYZE (analysis)

TEST_F(TraceMaintenanceTest, AnalysisIsolatesOneTransaction) {
  TwoTableFixture fx(4, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
      .Check();
  // Dirty the global counters first: the analysis must still report only
  // the second transaction's work (before/after snapshot diffs, no Reset).
  fx.manager->InsertRow("A", fx.NextARow(3)).status().Check();
  std::vector<NodeCounters> dirty = fx.sys->cost().Snapshot();

  MaintenanceAnalysis analysis;
  fx.manager->ApplyDelta(DeltaBatch::Inserts("A", {fx.NextARow(5)}), &analysis)
      .status()
      .Check();

  EXPECT_EQ(analysis.table, "A");
  EXPECT_EQ(analysis.base_inserts, 1u);
  EXPECT_EQ(analysis.base_deletes, 0u);
  ASSERT_EQ(analysis.per_node.size(), 4u);
  // The diff must match the raw counters minus the pre-txn snapshot.
  std::vector<NodeCounters> now = fx.sys->cost().Snapshot();
  for (int n = 0; n < 4; ++n) {
    NodeCounters expect = now[n] - dirty[n];
    EXPECT_EQ(analysis.per_node[n].searches, expect.searches) << "node " << n;
    EXPECT_EQ(analysis.per_node[n].fetches, expect.fetches);
    EXPECT_EQ(analysis.per_node[n].inserts, expect.inserts);
    EXPECT_EQ(analysis.per_node[n].sends, expect.sends);
  }
  EXPECT_GT(analysis.total_workload, 0.0);
  EXPECT_GE(analysis.total_workload, analysis.response_time);
  EXPECT_GT(analysis.messages, 0u);
  ASSERT_EQ(analysis.views.size(), 1u);
  EXPECT_EQ(analysis.views[0].view, "JV");
  EXPECT_EQ(analysis.views[0].method, MaintenanceMethod::kNaive);
  EXPECT_EQ(analysis.views[0].rows_inserted, 2u);  // fanout = 2
  EXPECT_GE(analysis.views[0].nodes_touched, 1);
}

TEST_F(TraceMaintenanceTest, PerTxnNodesTouchedMatchesPaperLocality) {
  constexpr int kNodes = 8;
  auto analyze = [&](MaintenanceMethod method) {
    TwoTableFixture fx(kNodes, 10, 2);
    fx.manager->RegisterView(fx.MakeView("JV"), method).Check();
    // A prior transaction leaves every node's counters nonzero under the
    // naive method — per-txn isolation is what makes the claim testable.
    fx.manager->InsertRow("A", fx.NextARow(1)).status().Check();
    MaintenanceAnalysis analysis;
    fx.manager
        ->ApplyDelta(DeltaBatch::Inserts("A", {fx.NextARow(5)}), &analysis)
        .status()
        .Check();
    return analysis;
  };
  // Naive broadcasts the delta: every node probes.
  EXPECT_EQ(analyze(MaintenanceMethod::kNaive).nodes_touched, kNodes);
  // AR routes to the one node holding the matching partition: arrival node
  // + AR/join node + view node, some coinciding.
  EXPECT_LE(analyze(MaintenanceMethod::kAuxRelation).nodes_touched, 3);
  // GI: arrival + GI home + K owners + view node, K = matches = 2.
  EXPECT_LE(analyze(MaintenanceMethod::kGlobalIndex).nodes_touched, 2 + 2 * 2);
}

TEST_F(TraceMaintenanceTest, ExplainAnalyzeRendersPerNodeTable) {
  TwoTableFixture fx(4, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation)
      .Check();
  MaintenanceAnalysis analysis;
  fx.manager->ApplyDelta(DeltaBatch::Inserts("A", {fx.NextARow(5)}), &analysis)
      .status()
      .Check();
  std::string text = analysis.ToString();
  EXPECT_NE(text.find("EXPLAIN ANALYZE maintenance of 'A'"), std::string::npos);
  EXPECT_NE(text.find("searches"), std::string::npos);
  EXPECT_NE(text.find("view JV [AUX_RELATION]"), std::string::npos);
  EXPECT_NE(text.find("nodes_touched="), std::string::npos);
  std::string json = analysis.ToJson();
  EXPECT_NE(json.find("\"table\":\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"per_node\":["), std::string::npos);
}

TEST_F(TraceMaintenanceTest, ExplainAnalyzeShowsRetryAttempts) {
  // Under wait-die, a maintenance transaction that loses to an older blocker
  // aborts and retries with backoff. EXPLAIN ANALYZE must surface how many
  // attempts the final report cost, how long the retry loop slept, and why
  // each failed attempt aborted.
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 4;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 200;
  cfg.maintain_max_attempts = 8;
  cfg.maintain_retry_base_us = 1000;
  ParallelSystem sys(cfg);
  ViewManager manager(&sys);
  sys.CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
  sys.CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
  for (int64_t k = 0; k < 10; ++k) {
    sys.Insert("B", {Value{k}, Value{k % 5}, Value{k}}).Check();
  }
  JoinViewDef def;
  def.name = "JV";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  def.partition_on = ColumnRef{"A", "e"};
  ASSERT_TRUE(manager.RegisterView(def, MaintenanceMethod::kAuxRelation).ok());

  Row contested = {Value{100}, Value{1}, Value{1}};
  uint64_t blocker = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", contested, blocker).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sys.Abort(blocker).Check();
  });
  MaintenanceAnalysis analysis;
  Result<MaintenanceReport> result =
      manager.ApplyDelta(DeltaBatch::Inserts("A", {contested}), &analysis);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GE(analysis.attempts, 2);
  EXPECT_GT(analysis.backoff_ns, 0u);
  ASSERT_EQ(analysis.attempt_aborts.size(),
            static_cast<size_t>(analysis.attempts - 1));
  for (const std::string& reason : analysis.attempt_aborts) {
    EXPECT_NE(reason.find("lock conflict"), std::string::npos) << reason;
  }
  std::string text = analysis.ToString();
  EXPECT_NE(text.find("retries:"), std::string::npos);
  EXPECT_NE(text.find("attempt 1 aborted:"), std::string::npos);
  std::string json = analysis.ToJson();
  EXPECT_NE(json.find("\"attempts\":"), std::string::npos);
  EXPECT_NE(json.find("\"attempt_aborts\":["), std::string::npos);
}

TEST_F(TraceMaintenanceTest, ExplainAnalyzeSingleAttemptStaysQuiet) {
  // No contention: the retry fields stay at their defaults and the rendered
  // plan does not mention retries at all.
  TwoTableFixture fx(4, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
      .Check();
  MaintenanceAnalysis analysis;
  fx.manager->ApplyDelta(DeltaBatch::Inserts("A", {fx.NextARow(5)}), &analysis)
      .status()
      .Check();
  EXPECT_EQ(analysis.attempts, 1);
  EXPECT_EQ(analysis.backoff_ns, 0u);
  EXPECT_TRUE(analysis.attempt_aborts.empty());
  EXPECT_EQ(analysis.ToString().find("retries:"), std::string::npos);
}

TEST_F(TraceMaintenanceTest, ExplainAnalyzeThroughSql) {
  TwoTableFixture fx(4, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
      .Check();
  sql::Executor exec(fx.manager.get());
  std::ostringstream os;
  exec.Execute("EXPLAIN ANALYZE INSERT INTO A VALUES (900, 5, 1)", os).Check();
  std::string out = os.str();
  EXPECT_NE(out.find("EXPLAIN ANALYZE maintenance of 'A'"), std::string::npos);
  EXPECT_NE(out.find("view JV [NAIVE]"), std::string::npos);
  // The row really went in (EXPLAIN ANALYZE executes, like PostgreSQL's).
  std::ostringstream os2;
  exec.Execute("EXPLAIN ANALYZE DELETE FROM A VALUES (900, 5, 1)", os2)
      .Check();
  EXPECT_NE(os2.str().find("(+0/-1 base rows)"), std::string::npos);
}

TEST_F(TraceMaintenanceTest, AnalysisUnpollutedByConcurrentTransactions) {
  // Regression: per-node attribution used to diff global CostTracker
  // snapshots around the transaction, so anything a *concurrent* maintenance
  // transaction did meanwhile was attributed to the bracketed one. The
  // per-txn meter must report the same per-node I/O, messages and bytes for
  // the same delta whether the system is otherwise idle or busy on
  // unrelated tables.
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 4;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  ParallelSystem sys(cfg);
  ViewManager manager(&sys);
  for (const char* base : {"A", "C"}) {
    sys.CreateTable(MakeTableDef(base, ASchema(), "a")).Check();
  }
  for (const char* dim : {"B", "D"}) {
    sys.CreateTable(MakeTableDef(dim, BSchema(), "b")).Check();
    for (int64_t k = 0; k < 10; ++k) {
      sys.Insert(dim, {Value{k}, Value{k % 5}, Value{k}}).Check();
    }
  }
  auto make_view = [](const char* name, const char* a, const char* b) {
    JoinViewDef def;
    def.name = name;
    def.bases = {{a, a}, {b, b}};
    def.edges = {{{a, "c"}, {b, "d"}}};
    def.partition_on = ColumnRef{a, "e"};
    return def;
  };
  ASSERT_TRUE(manager
                  .RegisterView(make_view("JV_AB", "A", "B"),
                                MaintenanceMethod::kAuxRelation)
                  .ok());
  ASSERT_TRUE(manager
                  .RegisterView(make_view("JV_CD", "C", "D"),
                                MaintenanceMethod::kAuxRelation)
                  .ok());

  // One warm-up insert/delete cycle so both measured runs see the same
  // physical pages (first-touch page allocations happen here).
  Row probe = {Value{100}, Value{1}, Value{1}};
  manager.InsertRow("A", probe).status().Check();
  manager.DeleteRow("A", probe).status().Check();

  MaintenanceAnalysis solo;
  const uint64_t msgs_before = sys.network().TotalMessages();
  const uint64_t bytes_before = sys.network().TotalBytes();
  manager.ApplyDelta(DeltaBatch::Inserts("A", {probe}), &solo)
      .status()
      .Check();
  // Run solo, the transaction's metered traffic is exactly the interconnect's
  // global traffic over the call.
  EXPECT_GT(solo.messages, 0u);
  EXPECT_EQ(solo.messages, sys.network().TotalMessages() - msgs_before);
  EXPECT_EQ(solo.bytes_sent, sys.network().TotalBytes() - bytes_before);
  manager.DeleteRow("A", probe).status().Check();

  // Noise: a second thread hammers the unrelated C/D view while we measure.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> noise_key{1000};
  std::thread noise([&] {
    while (!stop.load()) {
      int64_t k = noise_key.fetch_add(1);
      manager.InsertRow("C", {Value{k}, Value{k % 5}, Value{k}})
          .status()
          .Check();
    }
  });
  // Let the noise thread demonstrably run before and during the bracket.
  while (noise_key.load() < 1005) std::this_thread::yield();
  MaintenanceAnalysis conc;
  manager.ApplyDelta(DeltaBatch::Inserts("A", {probe}), &conc)
      .status()
      .Check();
  stop.store(true);
  noise.join();

  // Different tables, different lock fragments: no retries to excuse drift.
  EXPECT_EQ(conc.attempts, 1);
  ASSERT_EQ(conc.per_node.size(), solo.per_node.size());
  for (size_t n = 0; n < solo.per_node.size(); ++n) {
    EXPECT_EQ(conc.per_node[n].searches, solo.per_node[n].searches)
        << "node " << n;
    EXPECT_EQ(conc.per_node[n].fetches, solo.per_node[n].fetches)
        << "node " << n;
    EXPECT_EQ(conc.per_node[n].inserts, solo.per_node[n].inserts)
        << "node " << n;
    EXPECT_EQ(conc.per_node[n].sends, solo.per_node[n].sends) << "node " << n;
  }
  // Messages and bytes come from the same per-transaction meter, so the noise
  // thread's traffic is not attributed to this transaction either.
  EXPECT_EQ(conc.messages, solo.messages);
  EXPECT_EQ(conc.bytes_sent, solo.bytes_sent);
  manager.CheckAllConsistent().Check();
}

// ----------------------------------------------------- trace fan-out shape

/// Nodes named in `span_name` task spans recorded since the last Clear().
std::set<int> TaskNodes(const char* span_name) {
  std::set<int> nodes;
  for (const TraceSpan& s : Tracer::Global().Snapshot()) {
    if (std::string(s.name) == span_name) nodes.insert(s.node);
  }
  return nodes;
}

int CountSpans(const char* span_name) {
  int n = 0;
  for (const TraceSpan& s : Tracer::Global().Snapshot()) {
    if (std::string(s.name) == span_name) ++n;
  }
  return n;
}

TEST_F(TraceMaintenanceTest, NaiveTraceShowsAllNodeFanOut) {
  constexpr int kNodes = 8;
  TwoTableFixture fx(kNodes, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
      .Check();
  Tracer::Global().Enable();
  Tracer::Global().Clear();
  fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
  Tracer::Global().Disable();
  // The broadcast probe phase ran a task span on every node.
  EXPECT_EQ(TaskNodes("probe_node").size(), static_cast<size_t>(kNodes));
  EXPECT_EQ(CountSpans("broadcast_step"), 1);
  EXPECT_EQ(CountSpans("routed_step"), 0);
  EXPECT_EQ(CountSpans("maintain_txn"), 1);
  EXPECT_EQ(CountSpans("maintain_view"), 1);
  // Task spans carry the per-node cost deltas: the probes did real work
  // (index searches when B is clustered on d, scan fetches when not).
  uint64_t probe_io = 0;
  for (const TraceSpan& s : Tracer::Global().Snapshot()) {
    if (std::string(s.name) == "probe_node") {
      EXPECT_TRUE(s.has_cost);
      probe_io += s.cost.searches + s.cost.fetches;
    }
  }
  EXPECT_GT(probe_io, 0u);
}

TEST_F(TraceMaintenanceTest, AuxTraceShowsSingleNodeRouting) {
  TwoTableFixture fx(8, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation)
      .Check();
  Tracer::Global().Enable();
  Tracer::Global().Clear();
  fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
  Tracer::Global().Disable();
  // The AR method routes each delta tuple to the single node that owns its
  // join-key partition.
  EXPECT_EQ(TaskNodes("probe_node").size(), 1u);
  EXPECT_GE(CountSpans("routed_step"), 1);
  EXPECT_EQ(CountSpans("broadcast_step"), 0);
}

TEST_F(TraceMaintenanceTest, GlobalIndexTraceShowsHomeThenOwners) {
  TwoTableFixture fx(8, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kGlobalIndex)
      .Check();
  Tracer::Global().Enable();
  Tracer::Global().Clear();
  fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
  Tracer::Global().Disable();
  // Phase 1: the GI lookup runs on the delta key's single home node.
  EXPECT_EQ(TaskNodes("gi_probe_node").size(), 1u);
  // Phase 2: fetches go to the owner nodes of the K = 2 matching tuples.
  size_t owners = TaskNodes("gi_fetch_node").size();
  EXPECT_GE(owners, 1u);
  EXPECT_LE(owners, 2u);
  EXPECT_GE(CountSpans("gi_lookup"), 1);
  EXPECT_GE(CountSpans("gi_fetch"), 1);
}

// ------------------------------------------------- accounting invariance

TEST_F(TraceMaintenanceTest, CountersBitIdenticalTracingOnAndOff) {
  auto run = [](bool traced) {
    if (traced) {
      Tracer::Global().Enable();
    } else {
      Tracer::Global().Disable();
    }
    TwoTableFixture fx(8, 10, 2);
    for (MaintenanceMethod method :
         {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
          MaintenanceMethod::kGlobalIndex}) {
      JoinViewDef def = fx.MakeView(std::string("JV_") +
                                    MaintenanceMethodToString(method));
      fx.manager->RegisterView(def, method).Check();
    }
    MaintenanceAnalysis analysis;
    fx.manager
        ->ApplyDelta(DeltaBatch::Inserts(
                         "A", {{Value{500}, Value{5}, Value{1}},
                               {Value{501}, Value{7}, Value{2}}}),
                     &analysis)
        .status()
        .Check();
    Tracer::Global().Disable();
    return fx.sys->cost().Snapshot();
  };
  std::vector<NodeCounters> off = run(false);
  std::vector<NodeCounters> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t n = 0; n < off.size(); ++n) {
    EXPECT_EQ(off[n].searches, on[n].searches) << "node " << n;
    EXPECT_EQ(off[n].fetches, on[n].fetches) << "node " << n;
    EXPECT_EQ(off[n].inserts, on[n].inserts) << "node " << n;
    EXPECT_EQ(off[n].sends, on[n].sends) << "node " << n;
    EXPECT_EQ(off[n].bytes_sent, on[n].bytes_sent) << "node " << n;
    EXPECT_EQ(off[n].base_writes, on[n].base_writes) << "node " << n;
    EXPECT_EQ(off[n].structure_writes, on[n].structure_writes) << "node " << n;
    EXPECT_EQ(off[n].view_writes, on[n].view_writes) << "node " << n;
  }
}

// ------------------------------------------------------------ trace export

TEST_F(TraceMaintenanceTest, ExportedTraceIsLoadableChromeJson) {
  TwoTableFixture fx(4, 10, 2);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
      .Check();
  Tracer::Global().Enable();
  Tracer::Global().Clear();
  fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
  Tracer::Global().Disable();
  std::string path = ::testing::TempDir() + "pjvm_trace_test.json";
  Tracer::Global().ExportChromeTrace(path).Check();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"probe_node\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(
      Tracer::Global().ExportChromeTrace("/nonexistent-dir/trace.json").ok());
}

}  // namespace
}  // namespace pjvm
