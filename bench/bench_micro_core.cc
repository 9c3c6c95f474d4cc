// google-benchmark micro-benchmarks for the substrate the maintenance
// methods are built on: B+-tree operations, hash partitioning, index
// probes, the local join executors, and end-to-end single-tuple maintenance
// under each method.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "engine/system.h"
#include "exec/local_join.h"
#include "storage/btree.h"
#include "storage/table_fragment.h"
#include "txn/wal.h"
#include "view/view_manager.h"
#include "workload/twotable.h"

namespace pjvm {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree<uint64_t> tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(Value{i * 2654435761 % 100003}, static_cast<uint64_t>(i));
    }
    benchmark::DoNotOptimize(tree.num_items());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  BPlusTree<uint64_t> tree;
  for (int64_t i = 0; i < state.range(0); ++i) {
    tree.Insert(Value{i}, static_cast<uint64_t>(i));
  }
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(Value{key}));
    key = (key + 7919) % state.range(0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(100000);

void BM_HashPartitioning(benchmark::State& state) {
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NodeForKey(Value{k++}, 64));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPartitioning);

std::unique_ptr<ParallelSystem> MakeLoadedSystem(int64_t fanout) {
  SystemConfig cfg;
  cfg.num_nodes = 1;
  auto sys = std::make_unique<ParallelSystem>(cfg);
  TwoTableConfig two;
  two.b_join_keys = 1000;
  two.fanout = fanout;
  LoadTwoTable(sys.get(), two).Check();
  return sys;
}

// The local join of the naive broadcast step. Arg 1 joins against B, which
// is indexed on the join column (one lookup per distinct outer key); arg 0
// against an unindexed copy of B (a heap scan). Both charge the same pages.
void BM_SortMergeJoin(benchmark::State& state) {
  auto sys = MakeLoadedSystem(4);
  std::string table = "B";
  if (state.range(0) == 0) {
    TableDef def = **sys->catalog().Get("B");
    def.name = table = "B_unindexed";
    def.indexes.clear();
    sys->CreateTable(def).Check();
    std::vector<Row> rows;
    sys->node(0)->fragment(sys->catalog().IdOf("B"))->ForEach(
        [&](LocalRowId, const Row& row) {
          rows.push_back(row);
          return true;
        });
    for (Row& row : rows) sys->Insert(table, std::move(row)).Check();
  }
  const TableId table_id = sys->catalog().IdOf(table);
  std::vector<Row> outer;
  for (int64_t i = 0; i < 100; ++i) {
    outer.push_back({Value{i}, Value{i % 1000}, Value{i}});
  }
  std::vector<const Row*> refs;
  for (const Row& row : outer) refs.push_back(&row);
  for (auto _ : state) {
    NodeLatchGuard latch(*sys->node(0), LatchMode::kShared);
    auto result = SortMergeJoinFragment(
        sys->node(0), table_id, 1, GroupOuterKeys(refs, 1), 100,
        &sys->cost());
    benchmark::DoNotOptimize(result->size());
  }
  state.SetItemsProcessed(state.iterations() * outer.size());
}
BENCHMARK(BM_SortMergeJoin)->ArgName("indexed")->Arg(1)->Arg(0);

// A fragment of 4096 three-column rows, ~4 per key. Arg 1 indexes the key,
// so content lookups walk that key's posting list; arg 0 leaves it
// indexless, so they go through the per-row content hash.
std::unique_ptr<TableFragment> MakeFragment(bool indexed,
                                            std::vector<Row>* rows) {
  auto frag = std::make_unique<TableFragment>(
      Schema({{"k", ValueType::kInt64},
              {"v", ValueType::kInt64},
              {"s", ValueType::kString}}));
  if (indexed) frag->CreateIndex(0, /*clustered=*/false).Check();
  for (int64_t i = 0; i < 4096; ++i) {
    rows->push_back({Value{i / 4}, Value{i}, Value{"row-" + std::to_string(i)}});
    frag->Insert(rows->back()).status().Check();
  }
  return frag;
}

void BM_FragmentFindExact(benchmark::State& state) {
  std::vector<Row> rows;
  auto frag = MakeFragment(state.range(0) != 0, &rows);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(frag->FindExact(rows[i]).ok());
    i = (i + 97) % rows.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentFindExact)->ArgName("indexed")->Arg(1)->Arg(0);

// One content delete plus the re-insert of the same row: the view-row
// maintenance pair, with the lookup structure kept up on both sides.
void BM_FragmentDeleteInsert(benchmark::State& state) {
  std::vector<Row> rows;
  auto frag = MakeFragment(state.range(0) != 0, &rows);
  size_t i = 0;
  for (auto _ : state) {
    frag->DeleteExact(rows[i]).status().Check();
    frag->Insert(rows[i]).status().Check();
    i = (i + 97) % rows.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentDeleteInsert)->ArgName("indexed")->Arg(1)->Arg(0);

// One WAL append of a 5-column lineitem-shaped row (3 INT64, 2 DOUBLE), as
// Node::Insert logs it. A checkpoint truncates the log every 4,096 appends,
// so memory stays flat and the truncation is amortized into ns per append.
void BM_WalAppend(benchmark::State& state) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4096; ++i) {
    rows.push_back({Value{i}, Value{i * 31}, Value{i % 97},
                    Value{static_cast<double>(i) * 0.25}, Value{0.05}});
  }
  Wal wal;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wal.Append(1, LogRecordType::kInsert, /*table=*/0, rows[i]));
    if (++i == rows.size()) {
      wal.Clear();
      i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

// Loads 8,192 lineitem-shaped rows into an empty 4-node table (hash
// partitioned, one non-clustered index): one InsertMany (per-node runs with
// bottom-up index builds; run=1) against one ParallelSystem::Insert per row
// (run=0). Both leave identical fragments, logs and counters.
void BM_InsertRun(benchmark::State& state) {
  const bool run = state.range(0) != 0;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 8192; ++i) {
    rows.push_back({Value{i}, Value{i % 1024}, Value{i % 97},
                    Value{static_cast<double>(i) * 0.25}, Value{0.05}});
  }
  TableDef def;
  def.name = "lineitem";
  def.schema = Schema({{"orderkey", ValueType::kInt64},
                       {"partkey", ValueType::kInt64},
                       {"quantity", ValueType::kInt64},
                       {"extendedprice", ValueType::kDouble},
                       {"discount", ValueType::kDouble}});
  def.partition = PartitionSpec::Hash("orderkey");
  def.indexes.push_back(IndexSpec{"partkey", /*clustered=*/false});
  for (auto _ : state) {
    state.PauseTiming();
    SystemConfig cfg;
    cfg.num_nodes = 4;
    auto sys = std::make_unique<ParallelSystem>(cfg);
    sys->CreateTable(def).Check();
    state.ResumeTiming();
    if (run) {
      sys->InsertMany("lineitem", rows).Check();
    } else {
      for (const Row& row : rows) sys->Insert("lineitem", row).Check();
    }
    state.PauseTiming();
    sys.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_InsertRun)->ArgName("run")->Arg(1)->Arg(0);

void MaintenanceBench(benchmark::State& state, MaintenanceMethod method) {
  SystemConfig cfg;
  cfg.num_nodes = static_cast<int>(state.range(0));
  auto sys = std::make_unique<ParallelSystem>(cfg);
  TwoTableConfig two;
  two.b_join_keys = 500;
  two.fanout = 4;
  LoadTwoTable(sys.get(), two).Check();
  ViewManager manager(sys.get());
  manager.RegisterView(MakeModelView(), method).Check();
  int64_t i = 0;
  for (auto _ : state) {
    manager.InsertRow("A", MakeDeltaA(two, i++)).status().Check();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["io_per_insert"] =
      sys->cost().TotalWorkload() / static_cast<double>(i);
}

void BM_MaintainNaive(benchmark::State& state) {
  MaintenanceBench(state, MaintenanceMethod::kNaive);
}
void BM_MaintainAux(benchmark::State& state) {
  MaintenanceBench(state, MaintenanceMethod::kAuxRelation);
}
void BM_MaintainGi(benchmark::State& state) {
  MaintenanceBench(state, MaintenanceMethod::kGlobalIndex);
}
BENCHMARK(BM_MaintainNaive)->Arg(4)->Arg(16);
BENCHMARK(BM_MaintainAux)->Arg(4)->Arg(16);
BENCHMARK(BM_MaintainGi)->Arg(4)->Arg(16);

}  // namespace
}  // namespace pjvm

BENCHMARK_MAIN();
