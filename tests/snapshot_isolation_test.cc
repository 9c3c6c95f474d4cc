// Threaded isolation tests for the MVCC snapshot read path
// (SystemConfig::mvcc_reads): readers pin a commit epoch and never touch key
// locks or node latches, writers publish whole transactions atomically, and
// version GC respects the minimum active read epoch. Runs under TSan via
// scripts/run_tsan.sh.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "txn/snapshot_manager.h"
#include "view_test_util.h"

namespace pjvm {
namespace {

/// Two-table setup mirroring TwoTableFixture, but with a caller-controlled
/// SystemConfig so the same workload can run with mvcc_reads / locking
/// toggled. B has `fanout` rows per join-key value in [0, b_keys).
struct MvccFixture {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> manager;
  int64_t next_a_key = 0;

  MvccFixture(bool mvcc_reads, bool locking, int num_nodes = 2,
              int64_t b_keys = 8, int64_t fanout = 2,
              bool b_indexed_on_d = false) {
    SystemConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.rows_per_page = 4;
    cfg.enable_locking = locking;
    cfg.mvcc_reads = mvcc_reads;
    sys = std::make_unique<ParallelSystem>(cfg);
    TableDef a = MakeTableDef("A", ASchema(), "a");
    TableDef b = MakeTableDef("B", BSchema(), "b");
    if (b_indexed_on_d) b.indexes.push_back(IndexSpec{"d", true});
    sys->CreateTable(a).Check();
    sys->CreateTable(b).Check();
    int64_t bkey = 0;
    for (int64_t k = 0; k < b_keys; ++k) {
      for (int64_t r = 0; r < fanout; ++r) {
        sys->Insert("B", {Value{bkey}, Value{k}, Value{bkey * 10}}).Check();
        ++bkey;
      }
    }
    manager = std::make_unique<ViewManager>(sys.get());
  }

  JoinViewDef MakeView(const std::string& name) {
    JoinViewDef def;
    def.name = name;
    def.bases = {{"A", "A"}, {"B", "B"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}};
    def.partition_on = ColumnRef{"A", "e"};
    return def;
  }

  Row NextARow(int64_t join_key) {
    int64_t k = next_a_key++;
    return {Value{k}, Value{join_key}, Value{k * 100}};
  }
};

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// A transaction's writes are invisible to snapshot readers until Commit, and
// a scope pinned before the commit keeps reading the old epoch (repeatable
// read), while a fresh read after the commit sees the new rows.
TEST(SnapshotIsolationTest, ReadersSeeOnlyCommittedEpochs) {
  MvccFixture fx(/*mvcc_reads=*/true, /*locking=*/true);
  for (int i = 0; i < 4; ++i) {
    fx.sys->Insert("A", fx.NextARow(i % 4)).Check();
  }
  ASSERT_EQ(fx.sys->RowCount("A"), 4u);

  uint64_t txn = fx.sys->Begin();
  fx.sys->Insert("A", fx.NextARow(0), txn).Check();
  fx.sys->Insert("A", fx.NextARow(1), txn).Check();
  // Uncommitted writes are invisible to every snapshot read.
  EXPECT_EQ(fx.sys->RowCount("A"), 4u);
  EXPECT_EQ(fx.sys->ScanAll("A").size(), 4u);

  {
    SnapshotScope pinned(&fx.sys->snapshots());
    EXPECT_EQ(fx.sys->RowCount("A"), 4u);
    fx.sys->Commit(txn).Check();
    // The pinned scope still reads its original epoch after the commit.
    EXPECT_EQ(fx.sys->RowCount("A"), 4u);
    EXPECT_EQ(fx.sys->ScanAll("A").size(), 4u);
  }
  // A fresh read sees the committed transaction in full.
  EXPECT_EQ(fx.sys->RowCount("A"), 6u);
  EXPECT_EQ(fx.sys->ScanAll("A").size(), 6u);
}

// With mvcc_reads off an explicit read transaction takes S locks; with it on
// the same reads hold zero locks.
TEST(SnapshotIsolationTest, ExplicitReaderTakesNoLocksUnderMvcc) {
  for (bool mvcc : {false, true}) {
    MvccFixture fx(mvcc, /*locking=*/true);
    for (int i = 0; i < 6; ++i) {
      fx.sys->Insert("A", fx.NextARow(i % 4)).Check();
    }
    uint64_t txn = fx.sys->Begin();
    // Unindexed non-partition column: the locked path takes per-fragment
    // S locks; the snapshot path reads the pinned version chain instead.
    ASSERT_TRUE(fx.sys->SelectEq("A", "c", Value{int64_t{1}}, txn).ok());
    if (mvcc) {
      EXPECT_EQ(fx.sys->locks().HeldCount(txn), 0u) << "mvcc=" << mvcc;
    } else {
      EXPECT_GT(fx.sys->locks().HeldCount(txn), 0u) << "mvcc=" << mvcc;
    }
    fx.sys->Commit(txn).Check();
    EXPECT_EQ(fx.sys->locks().TotalLocks(), 0u);
  }
}

// While a writer transaction sits on X locks mid-transaction, snapshot
// readers complete without acquiring a single node latch or lock wait, and
// observe only the pre-transaction state.
TEST(SnapshotIsolationTest, ReadersNeverBlockOnWriterKeyLocks) {
  MvccFixture fx(/*mvcc_reads=*/true, /*locking=*/true);
  for (int i = 0; i < 8; ++i) {
    fx.sys->Insert("A", fx.NextARow(i % 4)).Check();
  }

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  std::thread writer([&] {
    uint64_t txn = fx.sys->Begin();
    for (int i = 0; i < 4; ++i) {
      Row row{Value{int64_t{100 + i}}, Value{int64_t{i % 4}},
              Value{int64_t{(100 + i) * 100}}};
      fx.sys->Insert("A", row, txn).Check();
    }
    {
      std::unique_lock<std::mutex> lk(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    }
    fx.sys->Commit(txn).Check();
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  // The writer is parked holding its X locks; nothing else runs, so any
  // metric movement below comes from the reads we issue here.
  ASSERT_GT(fx.sys->locks().TotalLocks(), 0u);
  uint64_t shared0 = CounterValue("pjvm_node_latch_shared");
  uint64_t excl0 = CounterValue("pjvm_node_latch_exclusive");
  uint64_t waits0 = CounterValue("pjvm_lock_waits");

  EXPECT_EQ(fx.sys->ScanAll("A").size(), 8u);
  EXPECT_EQ(fx.sys->RowCount("A"), 8u);
  // Routed probe on the partition column, fan-out probe on a non-partition
  // column, and a range scan — all snapshot reads.
  ASSERT_TRUE(fx.sys->SelectEq("A", "a", Value{int64_t{0}}).ok());
  Result<std::vector<Row>> by_c = fx.sys->SelectEq("A", "c", Value{int64_t{1}});
  ASSERT_TRUE(by_c.ok());
  for (const Row& row : by_c.value()) {
    EXPECT_LT(row[0].AsInt64(), 100) << "saw an uncommitted row";
  }
  Result<std::vector<Row>> range = fx.sys->SelectRange(
      "A", "a", Value{int64_t{0}}, Value{int64_t{1000}});
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value().size(), 8u);

  EXPECT_EQ(CounterValue("pjvm_node_latch_shared"), shared0);
  EXPECT_EQ(CounterValue("pjvm_node_latch_exclusive"), excl0);
  EXPECT_EQ(CounterValue("pjvm_lock_waits"), waits0);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_EQ(fx.sys->RowCount("A"), 12u);
  EXPECT_EQ(fx.sys->locks().TotalLocks(), 0u);
}

// Concurrent view maintenance never exposes a torn snapshot: every A row has
// exactly `fanout` join partners in B, so within any single snapshot scope
// |JV| == fanout * |A| — a base insert and its view updates become visible
// in the same epoch or not at all.
TEST(SnapshotIsolationTest, NoTornReadsAcrossBaseAndView) {
  constexpr int64_t kFanout = 2;
  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 8;
  MvccFixture fx(/*mvcc_reads=*/true, /*locking=*/true, /*num_nodes=*/2,
                 /*b_keys=*/8, kFanout);
  fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation)
      .Check();

  std::vector<std::vector<Row>> writer_rows(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kInsertsPerWriter; ++i) {
      writer_rows[w].push_back(fx.NextARow((w * kInsertsPerWriter + i) % 8));
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int> writer_failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (Row& row : writer_rows[w]) {
        if (!fx.manager->InsertRow("A", std::move(row)).ok()) {
          writer_failures.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        SnapshotScope scope(&fx.sys->snapshots());
        size_t a = fx.sys->RowCount("A");
        size_t jv = fx.sys->RowCount("JV");
        if (jv != a * kFanout) torn_reads.fetch_add(1);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done.store(true);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(writer_failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(fx.sys->RowCount("A"),
            static_cast<size_t>(kWriters * kInsertsPerWriter));
  EXPECT_EQ(fx.sys->RowCount("JV"),
            static_cast<size_t>(kWriters * kInsertsPerWriter * kFanout));
  fx.manager->CheckAllConsistent().Check();
  EXPECT_EQ(fx.sys->locks().TotalLocks(), 0u);
}

// Version GC never reclaims a version some live reader can still see: while
// a scope is pinned at an old epoch the delta chains grow past the fold
// threshold without folding, and the pinned reader keeps seeing its epoch's
// exact contents; once the scope closes, the next publish folds and
// pjvm_mvcc_gc_reclaimed advances.
TEST(SnapshotIsolationTest, GcNeverReclaimsVisibleVersions) {
  // One node: all inserts land on one fragment, so its delta chain passes
  // the per-fragment fold threshold (64 ops) deterministically.
  MvccFixture fx(/*mvcc_reads=*/true, /*locking=*/false, /*num_nodes=*/1);
  for (int i = 0; i < 10; ++i) {
    fx.sys->Insert("A", fx.NextARow(i % 8)).Check();
  }
  const auto bag0 = RowBag(fx.sys->ScanAll("A"));
  ASSERT_EQ(bag0.size(), 10u);

  uint64_t reclaimed0 = CounterValue("pjvm_mvcc_gc_reclaimed");
  {
    SnapshotScope pinned(&fx.sys->snapshots());
    // 100 autocommit inserts: far past the fold threshold (64 ops), but the
    // pinned scope holds the GC watermark at its epoch, so nothing folds.
    for (int i = 0; i < 100; ++i) {
      fx.sys->Insert("A", fx.NextARow(i % 8)).Check();
    }
    EXPECT_EQ(CounterValue("pjvm_mvcc_gc_reclaimed"), reclaimed0);
    // The pinned reader still sees exactly its epoch's rows.
    EXPECT_EQ(RowBag(fx.sys->ScanAll("A")), bag0);
    EXPECT_EQ(fx.sys->RowCount("A"), 10u);
  }
  // Scope released: the next publish's piggybacked fold reclaims the chain.
  fx.sys->Insert("A", fx.NextARow(0)).Check();
  EXPECT_GT(CounterValue("pjvm_mvcc_gc_reclaimed"), reclaimed0);
  EXPECT_EQ(fx.sys->RowCount("A"), 111u);
}

// The same single-threaded workload charges bit-identical cost counters —
// every NodeCounters field, descents included — with mvcc_reads on and off,
// for autocommit and explicit-transaction reads alike: the snapshot read
// path mirrors the locked path's cost formulas exactly, so paper-figure
// experiments are unaffected.
TEST(SnapshotIsolationTest, CostParityMvccOnOff) {
  auto run = [](bool mvcc) {
    MvccFixture fx(mvcc, /*locking=*/true, /*num_nodes=*/2, /*b_keys=*/8,
                   /*fanout=*/2, /*b_indexed_on_d=*/true);
    fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation)
        .Check();
    std::vector<Row> a_rows;
    for (int i = 0; i < 12; ++i) a_rows.push_back(fx.NextARow(i % 8));
    for (const Row& row : a_rows) {
      fx.manager->InsertRow("A", row).status().Check();
    }
    fx.manager->DeleteRow("A", a_rows[3]).status().Check();
    // Indexed probe, unindexed fan-out probe, routed probe, indexed range,
    // unindexed range, and full scans.
    fx.sys->SelectEq("B", "d", Value{int64_t{3}}).status().Check();
    fx.sys->SelectEq("A", "c", Value{int64_t{2}}).status().Check();
    fx.sys->SelectEq("A", "a", Value{int64_t{5}}).status().Check();
    fx.sys->SelectRange("B", "d", Value{int64_t{1}}, Value{int64_t{5}})
        .status()
        .Check();
    fx.sys->SelectRange("A", "e", Value{int64_t{0}}, Value{int64_t{700}})
        .status()
        .Check();
    fx.sys->ScanAll("JV");
    fx.sys->RowCount("A");
    // The same reads inside an explicit transaction: with mvcc_reads off
    // they take S locks and run inline on this thread, with it on they read
    // the snapshot — the charges must not differ.
    uint64_t txn = fx.sys->Begin();
    fx.sys->SelectEq("B", "d", Value{int64_t{3}}, txn).status().Check();
    fx.sys->SelectEq("A", "c", Value{int64_t{2}}, txn).status().Check();
    fx.sys->SelectEq("A", "a", Value{int64_t{5}}, txn).status().Check();
    fx.sys->SelectRange("B", "d", Value{int64_t{1}}, Value{int64_t{5}}, txn)
        .status()
        .Check();
    fx.sys->SelectRange("A", "e", Value{int64_t{0}}, Value{int64_t{700}}, txn)
        .status()
        .Check();
    fx.sys->Commit(txn).Check();
    fx.manager->CheckAllConsistent().Check();
    return fx.sys->cost().Snapshot();
  };
  std::vector<NodeCounters> off = run(false);
  std::vector<NodeCounters> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].searches, on[i].searches) << "node " << i;
    EXPECT_EQ(off[i].fetches, on[i].fetches) << "node " << i;
    EXPECT_EQ(off[i].inserts, on[i].inserts) << "node " << i;
    EXPECT_EQ(off[i].sends, on[i].sends) << "node " << i;
    EXPECT_EQ(off[i].bytes_sent, on[i].bytes_sent) << "node " << i;
    EXPECT_EQ(off[i].base_writes, on[i].base_writes) << "node " << i;
    EXPECT_EQ(off[i].structure_writes, on[i].structure_writes) << "node " << i;
    EXPECT_EQ(off[i].view_writes, on[i].view_writes) << "node " << i;
    EXPECT_EQ(off[i].descents, on[i].descents) << "node " << i;
  }
}

// Crash recovery rebuilds every fragment's snapshot from the replayed heap:
// reads after Recover() see exactly the committed state, and new writes
// version normally.
TEST(SnapshotIsolationTest, RecoveryRebuildsSnapshots) {
  MvccFixture fx(/*mvcc_reads=*/true, /*locking=*/true);
  for (int i = 0; i < 5; ++i) {
    fx.sys->Insert("A", fx.NextARow(i % 4)).Check();
  }
  uint64_t committed = fx.sys->Begin();
  fx.sys->Insert("A", fx.NextARow(0), committed).Check();
  fx.sys->Commit(committed).Check();
  uint64_t in_flight = fx.sys->Begin();
  fx.sys->Insert("A", fx.NextARow(1), in_flight).Check();
  const auto expected = RowBag(fx.sys->ScanAll("A"));
  ASSERT_EQ(fx.sys->RowCount("A"), 6u);

  fx.sys->Crash();
  fx.sys->Recover().Check();

  // The in-flight transaction rolled back; snapshots match the recovered
  // heap exactly.
  EXPECT_EQ(RowBag(fx.sys->ScanAll("A")), expected);
  EXPECT_EQ(fx.sys->RowCount("A"), 6u);
  fx.sys->Insert("A", fx.NextARow(2)).Check();
  EXPECT_EQ(fx.sys->RowCount("A"), 7u);
}

}  // namespace
}  // namespace pjvm
