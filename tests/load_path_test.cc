// The set-oriented load path: ParallelSystem::InsertMany's per-node runs
// must leave every node exactly as one ParallelSystem::Insert per row would
// — lrids, posting-list order, WAL records and cost counters — whether the
// run lands in an empty fragment (bottom-up index builds) or a loaded one.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/system.h"
#include "view/view_manager.h"
#include "workload/twotable.h"

namespace pjvm {
namespace {

struct Twin {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> vm;
};

Twin MakeTwin(bool mvcc, bool locking) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 8;
  cfg.mvcc_reads = mvcc;
  cfg.enable_locking = locking;
  Twin twin;
  twin.sys = std::make_unique<ParallelSystem>(cfg);
  TableDef hashed;
  hashed.name = "H";
  hashed.schema = Schema({{"k", ValueType::kInt64},
                          {"c", ValueType::kInt64},
                          {"s", ValueType::kString}});
  hashed.partition = PartitionSpec::Hash("k");
  hashed.indexes = {IndexSpec{"c", /*clustered=*/true},
                    IndexSpec{"s", /*clustered=*/false}};
  twin.sys->CreateTable(hashed).Check();
  TableDef spread;  // round-robin placement, one index
  spread.name = "R";
  spread.schema = Schema({{"x", ValueType::kInt64}, {"y", ValueType::kDouble}});
  spread.indexes = {IndexSpec{"x", /*clustered=*/false}};
  twin.sys->CreateTable(spread).Check();
  TableDef bare;  // no index: the content-hash lookup path
  bare.name = "N";
  bare.schema = Schema({{"v", ValueType::kInt64}});
  twin.sys->CreateTable(bare).Check();
  twin.vm = std::make_unique<ViewManager>(twin.sys.get());
  return twin;
}

// Few distinct keys, so posting lists are long and their order matters.
std::vector<Row> HashedRows(Rng* rng, int64_t first, int n) {
  std::vector<Row> rows;
  for (int64_t k = first; k < first + n; ++k) {
    rows.push_back({Value{k}, Value{rng->UniformInt(0, 9)},
                    Value{"s" + std::to_string(rng->UniformInt(0, 4))}});
  }
  return rows;
}

std::vector<Row> SpreadRows(Rng* rng, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value{rng->UniformInt(0, 6)},
                    Value{static_cast<double>(rng->UniformInt(0, 3))}});
  }
  return rows;
}

std::vector<Row> BareRows(Rng* rng, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value{rng->UniformInt(0, 5)}});
  return rows;
}

// Every node's heap (lrid, row) pairs and every index's (key, posting list)
// entries, rendered in storage order.
std::string Storage(const ParallelSystem& sys, const std::string& table) {
  std::string out;
  for (int n = 0; n < sys.num_nodes(); ++n) {
    const TableFragment* frag =
        sys.node(n)->fragment(sys.catalog().IdOf(table));
    out += "node " + std::to_string(n) + ":";
    frag->ForEach([&](LocalRowId lrid, const Row& row) {
      out += " " + std::to_string(lrid) + "=" + RowToString(row);
      return true;
    });
    for (const LocalIndex* index : frag->Indexes()) {
      out += "\n  index " + std::to_string(index->column) + ":";
      index->tree.ForEachEntry(
          [&](const Value& key, const std::vector<LocalRowId>& rids) {
            out += " " + key.ToString() + "[";
            for (LocalRowId rid : rids) out += std::to_string(rid) + ",";
            out += "]";
            return true;
          });
    }
    out += "\n";
  }
  return out;
}

std::string WalOf(const ParallelSystem& sys) {
  std::string out;
  for (int n = 0; n < sys.num_nodes(); ++n) {
    for (const LogRecord& rec : sys.node(n)->wal().records()) {
      out += std::to_string(n) + "/" + std::to_string(rec.lsn) + " t" +
             std::to_string(rec.txn_id) + " " +
             std::to_string(static_cast<int>(rec.type)) + " " +
             std::to_string(rec.table) + " " + RowToString(rec.row) + "\n";
    }
  }
  return out;
}

std::string CountersOf(ParallelSystem& sys) {
  std::string out;
  for (int n = 0; n < sys.num_nodes(); ++n) {
    const NodeCounters c = sys.cost().node(n);
    out += std::to_string(c.searches) + "/" + std::to_string(c.fetches) + "/" +
           std::to_string(c.inserts) + "/" + std::to_string(c.sends) + "/" +
           std::to_string(c.base_writes) + "/" +
           std::to_string(c.structure_writes) + "/" +
           std::to_string(c.view_writes) + "/" + std::to_string(c.descents) +
           " ";
  }
  return out;
}

void ExpectTwinsEqual(const Twin& run, const Twin& rows) {
  for (const char* table : {"H", "R", "N"}) {
    EXPECT_EQ(Storage(*run.sys, table), Storage(*rows.sys, table)) << table;
    EXPECT_EQ(run.sys->ScanAll(table), rows.sys->ScanAll(table)) << table;
  }
  EXPECT_EQ(WalOf(*run.sys), WalOf(*rows.sys));
  EXPECT_EQ(CountersOf(*run.sys), CountersOf(*rows.sys));
  EXPECT_TRUE(run.sys->CheckInvariants().ok()) << run.sys->CheckInvariants();
}

class LoadPathTest : public ::testing::TestWithParam<bool> {};

// Two batches per table: the first lands in empty fragments (bottom-up
// index builds), the second in loaded ones (row-by-row splices); then
// deletes free slots that one more batch per table reuses.
TEST_P(LoadPathTest, RunsMatchRowByRowInserts) {
  const bool mvcc = GetParam();
  Twin run = MakeTwin(mvcc, /*locking=*/false);
  Twin rows = MakeTwin(mvcc, /*locking=*/false);
  Rng rng(17);
  std::vector<std::pair<std::string, std::vector<Row>>> batches;
  for (int round = 0; round < 2; ++round) {
    batches.emplace_back("H", HashedRows(&rng, round * 300, 300));
    batches.emplace_back("R", SpreadRows(&rng, 150));
    batches.emplace_back("N", BareRows(&rng, 60));
  }
  for (auto& [table, batch] : batches) {
    for (const Row& row : batch) ASSERT_TRUE(rows.sys->Insert(table, row).ok());
    ASSERT_TRUE(run.sys->InsertMany(table, std::move(batch)).ok());
  }
  ExpectTwinsEqual(run, rows);
  for (Twin* twin : {&run, &rows}) {
    for (int64_t i = 0; i < 40; ++i) {
      std::vector<Row> found = *twin->sys->SelectEq("H", "k", Value{i * 13});
      ASSERT_EQ(found.size(), 1u);
      ASSERT_TRUE(twin->sys->DeleteExact("H", found[0]).ok());
    }
  }
  // Emptying R leaves every slot on the free list: the next run builds
  // R's index bottom-up again, over recycled (out-of-order) lrids.
  for (Twin* twin : {&run, &rows}) {
    for (const Row& row : twin->sys->ScanAll("R")) {
      ASSERT_TRUE(twin->sys->DeleteExact("R", row).ok());
    }
  }
  std::vector<Row> refill = HashedRows(&rng, 600, 50);
  std::vector<Row> respread = SpreadRows(&rng, 200);
  for (const Row& row : refill) ASSERT_TRUE(rows.sys->Insert("H", row).ok());
  for (const Row& row : respread) ASSERT_TRUE(rows.sys->Insert("R", row).ok());
  ASSERT_TRUE(run.sys->InsertMany("H", refill).ok());
  ASSERT_TRUE(run.sys->InsertMany("R", respread).ok());
  ExpectTwinsEqual(run, rows);
}

// An explicit transaction's run records the same write set: after commit
// the twins agree, and an aborted run undoes exactly its own rows.
TEST_P(LoadPathTest, TransactionalRunsMatchRowByRowInserts) {
  const bool mvcc = GetParam();
  Twin run = MakeTwin(mvcc, /*locking=*/true);
  Twin rows = MakeTwin(mvcc, /*locking=*/true);
  Rng rng(23);
  std::vector<Row> first = HashedRows(&rng, 0, 200);
  std::vector<Row> doomed = HashedRows(&rng, 200, 100);
  std::vector<Row> spread = SpreadRows(&rng, 80);
  for (Twin* twin : {&run, &rows}) {
    const uint64_t t1 = twin->sys->Begin();
    if (twin == &run) {
      ASSERT_TRUE(twin->sys->InsertMany("H", first, t1).ok());
      ASSERT_TRUE(twin->sys->InsertMany("R", spread, t1).ok());
    } else {
      for (const Row& row : first) ASSERT_TRUE(twin->sys->Insert("H", row, t1).ok());
      for (const Row& row : spread) ASSERT_TRUE(twin->sys->Insert("R", row, t1).ok());
    }
    ASSERT_TRUE(twin->sys->Commit(t1).ok());
    const uint64_t t2 = twin->sys->Begin();
    if (twin == &run) {
      ASSERT_TRUE(twin->sys->InsertMany("H", doomed, t2).ok());
    } else {
      for (const Row& row : doomed) ASSERT_TRUE(twin->sys->Insert("H", row, t2).ok());
    }
    ASSERT_TRUE(twin->sys->Abort(t2).ok());
  }
  ExpectTwinsEqual(run, rows);
  EXPECT_EQ(run.sys->RowCount("H"), 200u);
}

// A view's backfill and its AR/GI builds go through InsertMany; the views
// still equal the from-scratch join, and a later delta maintains them.
TEST_P(LoadPathTest, BackfilledViewsMatchTheOracle) {
  const bool mvcc = GetParam();
  for (MaintenanceMethod method :
       {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
        MaintenanceMethod::kGlobalIndex}) {
    SystemConfig cfg;
    cfg.num_nodes = 4;
    cfg.mvcc_reads = mvcc;
    ParallelSystem sys(cfg);
    TwoTableConfig tt;
    tt.b_join_keys = 40;
    tt.fanout = 3;
    ASSERT_TRUE(LoadTwoTable(&sys, tt).ok());
    std::vector<Row> a;
    for (int64_t i = 0; i < 120; ++i) a.push_back(MakeDeltaA(tt, i));
    ASSERT_TRUE(sys.InsertMany("A", std::move(a)).ok());
    ViewManager vm(&sys);
    ASSERT_TRUE(vm.RegisterView(MakeModelView(), method).ok());
    EXPECT_EQ(vm.view("JV")->RowCount(), 360u);
    EXPECT_TRUE(vm.CheckAllConsistent().ok()) << vm.CheckAllConsistent();
    ASSERT_TRUE(vm.ApplyDelta(DeltaBatch::Inserts("A", {MakeDeltaA(tt, 500)}))
                    .ok());
    EXPECT_TRUE(vm.CheckAllConsistent().ok()) << vm.CheckAllConsistent();
  }
}

// Validation happens before placement: a run with one bad row inserts,
// logs and charges nothing, and consumes no round-robin placement.
TEST_P(LoadPathTest, InvalidRowInsertsNothing) {
  Twin twin = MakeTwin(GetParam(), /*locking=*/false);
  Rng rng(3);
  std::vector<Row> batch = SpreadRows(&rng, 20);
  batch[13] = {Value{1}};  // too narrow
  EXPECT_FALSE(twin.sys->InsertMany("R", batch).ok());
  std::vector<Row> typed = HashedRows(&rng, 0, 20);
  typed[7][1] = Value{"not an int"};
  EXPECT_FALSE(twin.sys->InsertMany("H", typed).ok());
  EXPECT_EQ(twin.sys->RowCount("R"), 0u);
  EXPECT_EQ(twin.sys->RowCount("H"), 0u);
  EXPECT_EQ(WalOf(*twin.sys), "");
  Twin fresh = MakeTwin(false, false);
  EXPECT_EQ(CountersOf(*twin.sys), CountersOf(*fresh.sys));
  // Round-robin placement starts over at node 0.
  ASSERT_TRUE(twin.sys->InsertMany("R", {{Value{1}, Value{1.0}}}).ok());
  EXPECT_EQ(twin.sys->node(0)->fragment(twin.sys->catalog().IdOf("R"))
                ->num_rows(),
            1u);
}

// The returned global row ids follow input order and resolve to the rows.
TEST_P(LoadPathTest, GidsFollowInputOrder) {
  Twin twin = MakeTwin(GetParam(), /*locking=*/false);
  Rng rng(9);
  std::vector<Row> batch = HashedRows(&rng, 0, 64);
  std::vector<GlobalRowId> gids;
  ASSERT_TRUE(twin.sys->InsertMany("H", batch, kAutoCommitTxnId, &gids).ok());
  ASSERT_EQ(gids.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const TableFragment* frag =
        twin.sys->node(gids[i].node)->fragment(twin.sys->catalog().IdOf("H"));
    ASSERT_NE(frag->Get(gids[i].lrid), nullptr);
    EXPECT_EQ(*frag->Get(gids[i].lrid), batch[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(MvccOffOn, LoadPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mvcc" : "Live";
                         });

}  // namespace
}  // namespace pjvm
