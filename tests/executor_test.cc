#include "engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/system.h"
#include "net/network.h"
#include "tests/view_test_util.h"
#include "view/maintainer.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// ---------------------------------------------------------------------------
// NodeExecutor unit behavior.
// ---------------------------------------------------------------------------

TEST(NodeExecutorTest, TasksForOneNodeRunInOrderOnOneWorkerThread) {
  NodeExecutor exec(4);
  std::vector<int> order;  // Only node 2's worker writes: no race.
  std::thread::id worker{};
  bool single_thread = true;
  for (int i = 0; i < 200; ++i) {
    exec.RunOnNodes({2}, [&, i](int) -> Status {
          if (order.empty()) {
            worker = std::this_thread::get_id();
          } else if (worker != std::this_thread::get_id()) {
            single_thread = false;
          }
          order.push_back(i);
          return Status::OK();
        })
        .Check();
  }
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(single_thread);
  EXPECT_NE(worker, std::this_thread::get_id());
}

TEST(NodeExecutorTest, RunOnNodesRunsEachNodeOnItsOwnWorker) {
  constexpr int kNodes = 6;
  NodeExecutor exec(kNodes);
  // Slot i touched only by worker i.
  std::vector<int> hits(kNodes, 0);
  std::vector<std::thread::id> ran_on(kNodes);
  exec.RunOnNodes({0, 1, 2, 3, 4, 5}, [&](int node) -> Status {
        hits[node]++;
        ran_on[node] = std::this_thread::get_id();
        return Status::OK();
      })
      .Check();
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(hits[i], 1) << "node " << i;
    EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "node " << i;
    for (int j = 0; j < i; ++j) EXPECT_NE(ran_on[i], ran_on[j]);
  }
}

TEST(NodeExecutorTest, RunOnAllNodesReturnsFirstErrorInNodeOrder) {
  NodeExecutor exec(8);
  Status st = exec.RunOnAllNodes([](int node) -> Status {
    if (node >= 3) return Status::Internal("boom at node " + std::to_string(node));
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("boom at node 3"), std::string::npos)
      << st.ToString();
}

TEST(NodeExecutorTest, InlineModeRunsOnCallerThread) {
  NodeExecutor exec(4, /*inline_mode=*/true);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  exec.RunOnAllNodes([&](int) -> Status {
        if (std::this_thread::get_id() != caller) all_on_caller = false;
        return Status::OK();
      })
      .Check();
  EXPECT_TRUE(all_on_caller);
}

TEST(NodeExecutorTest, ShutdownDrainsPendingWorkAndIsIdempotent) {
  // A client thread's batch is still running when Shutdown arrives: Shutdown
  // must let every task finish before it joins the workers.
  NodeExecutor exec(3);
  std::vector<int> done(3, 0);
  std::atomic<int> started{0};
  Status client_status;
  std::thread client([&] {
    client_status = exec.RunOnNodes({0, 1, 2}, [&](int n) -> Status {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done[n] = 1;
      return Status::OK();
    });
  });
  // Every task has been submitted once every task has started.
  while (started.load() < 3) std::this_thread::yield();
  exec.Shutdown();
  exec.Shutdown();
  for (int n = 0; n < 3; ++n) EXPECT_EQ(done[n], 1) << "node " << n;
  client.join();
  EXPECT_TRUE(client_status.ok()) << client_status.ToString();
}

// ---------------------------------------------------------------------------
// The central property of this layer: parallel execution must be
// observationally identical to the sequential reference — same query
// results, same view contents, and bit-identical cost-model output (every
// per-node counter, TW, response time, locality, and message/byte totals).
// ---------------------------------------------------------------------------

void FingerprintCounters(ParallelSystem& sys, std::ostringstream* os) {
  const CostTracker& cost = sys.cost();
  for (int i = 0; i < sys.num_nodes(); ++i) {
    NodeCounters c = cost.node(i);
    *os << "node" << i << ":" << c.searches << "," << c.fetches << ","
        << c.inserts << "," << c.sends << "," << c.bytes_sent << ","
        << c.base_writes << "," << c.structure_writes << "," << c.view_writes
        << "\n";
  }
  *os << "TW=" << cost.TotalWorkload() << " RT=" << cost.ResponseTime()
      << " CRT=" << cost.ComputeResponseTime()
      << " touched=" << cost.NodesTouched() << " sends=" << cost.TotalSends()
      << "\n";
  Network& net = sys.network();
  *os << "msgs=" << net.TotalMessages() << " bytes=" << net.TotalBytes()
      << "\n";
}

void FingerprintRows(const std::string& tag, std::vector<Row> rows,
                     std::ostringstream* os) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) keys.push_back(RowToString(row));
  std::sort(keys.begin(), keys.end());
  *os << tag << "(" << keys.size() << "):";
  for (const std::string& k : keys) *os << k << ";";
  *os << "\n";
}

/// Runs an identical randomized maintenance + query workload under the given
/// execution mode and returns a full observable fingerprint.
std::string RunWorkload(MaintenanceMethod method, bool parallel, int num_nodes,
                        int steps, uint64_t seed) {
  SystemConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.rows_per_page = 4;
  cfg.parallel_execution = parallel;
  ParallelSystem sys(cfg);
  sys.CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
  sys.CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
  // Bulk-load B through the batched path so InsertMany's home-node fan-out is
  // part of what gets compared.
  std::vector<Row> b_rows;
  int64_t bkey = 0;
  for (int64_t k = 0; k < 12; ++k) {
    for (int64_t r = 0; r < 3; ++r) {
      b_rows.push_back({Value{bkey}, Value{k}, Value{bkey * 10}});
      ++bkey;
    }
  }
  sys.InsertMany("B", b_rows).Check();

  ViewManager manager(&sys);
  JoinViewDef def;
  def.name = "JV";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  def.partition_on = ColumnRef{"A", "e"};
  manager.RegisterView(def, method).Check();

  Rng rng(seed);
  std::vector<Row> live;
  int64_t next_a = 0;
  for (int step = 0; step < steps; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.6 || live.empty()) {
      int64_t k = next_a++;
      Row row = {Value{k}, Value{rng.UniformInt(0, 15)}, Value{k * 100}};
      manager.InsertRow("A", row).status().Check();
      live.push_back(row);
    } else if (dice < 0.8) {
      size_t pick = rng.Next() % live.size();
      manager.DeleteRow("A", live[pick]).status().Check();
      live.erase(live.begin() + pick);
    } else {
      size_t pick = rng.Next() % live.size();
      Row old_row = live[pick];
      Row new_row = old_row;
      new_row[1] = Value{rng.UniformInt(0, 15)};
      manager.UpdateRow("A", old_row, new_row).status().Check();
      live[pick] = new_row;
    }
  }
  manager.CheckAllConsistent().Check();

  std::ostringstream os;
  // Fan-out reads: SelectEq on a non-partitioning column broadcasts to every
  // node; SelectRange and ScanAll always touch all fragments.
  FingerprintRows("eq", sys.SelectEq("A", "c", Value{3}).value(), &os);
  FingerprintRows("range", sys.SelectRange("B", "d", Value{2}, Value{9}).value(),
                  &os);
  FingerprintRows("scan", sys.ScanAll("A"), &os);
  FingerprintRows("view", sys.ScanAll(manager.view("JV")->table_name()), &os);
  FingerprintCounters(sys, &os);
  return os.str();
}

class ParallelEquivalence : public ::testing::TestWithParam<MaintenanceMethod> {
};

TEST_P(ParallelEquivalence, CostModelOutputsIdenticalToSequentialReference) {
  for (int nodes : {1, 4, 7}) {
    std::string seq = RunWorkload(GetParam(), /*parallel=*/false, nodes,
                                  /*steps=*/60, /*seed=*/17);
    std::string par = RunWorkload(GetParam(), /*parallel=*/true, nodes,
                                  /*steps=*/60, /*seed=*/17);
    EXPECT_EQ(seq, par) << "L=" << nodes;
  }
}

// Stress: repeat with fresh seeds so thread interleavings vary run to run; any
// lost update, double charge, or order-dependent merge shows up as a
// fingerprint mismatch.
TEST_P(ParallelEquivalence, StressRepeatedRunsStayIdentical) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    std::string seq = RunWorkload(GetParam(), /*parallel=*/false, /*nodes=*/5,
                                  /*steps=*/40, seed);
    std::string par = RunWorkload(GetParam(), /*parallel=*/true, /*nodes=*/5,
                                  /*steps=*/40, seed);
    ASSERT_EQ(seq, par) << "seed " << seed;
  }
}

std::string MethodName(const ::testing::TestParamInfo<MaintenanceMethod>& info) {
  return MaintenanceMethodToString(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ParallelEquivalence,
                         ::testing::Values(MaintenanceMethod::kNaive,
                                           MaintenanceMethod::kAuxRelation,
                                           MaintenanceMethod::kGlobalIndex),
                         MethodName);

}  // namespace
}  // namespace pjvm
