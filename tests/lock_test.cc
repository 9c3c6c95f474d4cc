#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/worker_context.h"
#include "engine/node.h"
#include "engine/system.h"
#include "obs/metrics_registry.h"
#include "tests/view_test_util.h"
#include "txn/lock_manager.h"
#include "view/explain.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// Table ids for the tests that drive a LockManager alone: it takes any id.
constexpr TableId kT = 0;
constexpr TableId kU = 1;

// ------------------------------------------------------------ LockManager

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm;
  LockId id = LockId::Key(0, kT, Value{5});
  EXPECT_TRUE(lm.Acquire(1, id, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kShared).ok());
  EXPECT_EQ(lm.TotalLocks(), 2u);
}

TEST(LockManagerTest, ExclusiveConflictsAbortImmediately) {
  LockManager lm;
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(1, id, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).IsAborted());
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kShared).IsAborted());
  // Different keys do not conflict.
  EXPECT_TRUE(lm.Acquire(2, LockId::Key(0, kT, Value{6}), LockMode::kExclusive)
                  .ok());
}

TEST(LockManagerTest, ReacquisitionAndUpgrade) {
  LockManager lm;
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(1, id, LockMode::kShared).ok());
  // Reacquire and upgrade by the sole holder are fine.
  EXPECT_TRUE(lm.Acquire(1, id, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, id, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, id, LockMode::kExclusive));
  // After the upgrade, others are locked out.
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kShared).IsAborted());
}

TEST(LockManagerTest, UpgradeBlockedByOtherReaders) {
  LockManager lm;
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(1, id, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, id, LockMode::kShared).ok());
  // The younger reader's upgrade conflicts with the older reader: it dies.
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).IsAborted());
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager lm;
  LockId a = LockId::Key(0, kT, Value{1});
  LockId b = LockId::Key(1, kT, Value{2});
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(1, b, LockMode::kExclusive).ok());
  EXPECT_EQ(lm.HeldCount(1), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.HeldCount(1), 0u);
  EXPECT_EQ(lm.TotalLocks(), 0u);
  EXPECT_TRUE(lm.Acquire(2, a, LockMode::kExclusive).ok());
}

TEST(LockManagerTest, TableLockCoversKeys) {
  LockManager lm;
  LockId table = LockId::Table(0, kT);
  LockId key = LockId::Key(0, kT, Value{5});
  // Writer holds a key; a scanner's table-S lock conflicts.
  ASSERT_TRUE(lm.Acquire(1, key, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, table, LockMode::kShared).IsAborted());
  lm.ReleaseAll(1);
  // Scanner holds the table; a (younger) writer's key-X conflicts.
  ASSERT_TRUE(lm.Acquire(2, table, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(3, key, LockMode::kExclusive).IsAborted());
  // But a reading probe is compatible with the table-S lock.
  EXPECT_TRUE(lm.Acquire(3, key, LockMode::kShared).ok());
}

TEST(LockManagerTest, DifferentTablesAndNodesIndependent) {
  LockManager lm;
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Table(0, kT), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, LockId::Table(0, kU), LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(3, LockId::Table(1, kT), LockMode::kExclusive).ok());
}

TEST(LockManagerTest, IndexKeyLocksDistinguishColumns) {
  LockManager lm;
  LockId c0 = LockId::IndexKey(0, kT, 0, Value{5});
  LockId c1 = LockId::IndexKey(0, kT, 1, Value{5});
  ASSERT_TRUE(lm.Acquire(1, c0, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, c1, LockMode::kExclusive).ok());
}

// -------------------------------------------------- Engine-level locking

SystemConfig LockingConfig(int nodes = 4) {
  SystemConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rows_per_page = 4;
  cfg.enable_locking = true;
  return cfg;
}

TableDef SimpleTable() {
  TableDef def;
  def.name = "T";
  def.schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
  def.partition = PartitionSpec::Hash("k");
  def.indexes.push_back(IndexSpec{"k", false});
  return def;
}

TEST(EngineLockingTest, ConflictingWritersAbort) {
  ParallelSystem sys(LockingConfig());
  ASSERT_TRUE(sys.CreateTable(SimpleTable()).ok());
  uint64_t t1 = sys.Begin();
  uint64_t t2 = sys.Begin();
  Row row = {Value{7}, Value{1}};
  ASSERT_TRUE(sys.Insert("T", row, t1).ok());
  // Same row content (and same index keys): t2 must be refused.
  EXPECT_TRUE(sys.Insert("T", row, t2).IsAborted());
  // A different key is fine.
  EXPECT_TRUE(sys.Insert("T", {Value{8}, Value{1}}, t2).ok());
  ASSERT_TRUE(sys.Commit(t1).ok());
  ASSERT_TRUE(sys.Commit(t2).ok());
  EXPECT_EQ(sys.RowCount("T"), 2u);
}

TEST(EngineLockingTest, ReaderBlocksWriterOnSameIndexKey) {
  ParallelSystem sys(LockingConfig());
  ASSERT_TRUE(sys.CreateTable(SimpleTable()).ok());
  ASSERT_TRUE(sys.Insert("T", {Value{7}, Value{1}}).ok());
  uint64_t reader = sys.Begin();
  int home = sys.HomeNodeForKey(Value{7});
  const TableId t = sys.catalog().IdOf("T");
  ASSERT_TRUE(sys.node(home)->IndexProbe(t, 0, Value{7}, reader).ok());
  uint64_t writer = sys.Begin();
  EXPECT_TRUE(sys.Insert("T", {Value{7}, Value{2}}, writer).IsAborted());
  // Wait-die killed the younger writer: it rolls back (releasing any locks
  // it picked up before the conflict).
  ASSERT_TRUE(sys.Abort(writer).ok());
  // Readers of the same key coexist.
  uint64_t reader2 = sys.Begin();
  EXPECT_TRUE(sys.node(home)->IndexProbe(t, 0, Value{7}, reader2).ok());
  ASSERT_TRUE(sys.Commit(reader).ok());
  ASSERT_TRUE(sys.Commit(reader2).ok());
  // Now the writer (a fresh txn; the old one aborted its statement) may go.
  uint64_t writer2 = sys.Begin();
  EXPECT_TRUE(sys.Insert("T", {Value{7}, Value{2}}, writer2).ok());
  ASSERT_TRUE(sys.Commit(writer2).ok());
}

TEST(EngineLockingTest, CommitAndAbortReleaseLocks) {
  ParallelSystem sys(LockingConfig());
  ASSERT_TRUE(sys.CreateTable(SimpleTable()).ok());
  uint64_t t1 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{1}, Value{1}}, t1).ok());
  EXPECT_GT(sys.locks().TotalLocks(), 0u);
  ASSERT_TRUE(sys.Commit(t1).ok());
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
  uint64_t t2 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{2}, Value{2}}, t2).ok());
  ASSERT_TRUE(sys.Abort(t2).ok());
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
}

TEST(EngineLockingTest, AutocommitOpsAreNotLocked) {
  ParallelSystem sys(LockingConfig());
  ASSERT_TRUE(sys.CreateTable(SimpleTable()).ok());
  ASSERT_TRUE(sys.Insert("T", {Value{1}, Value{1}}).ok());
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
}

TEST(EngineLockingTest, MaintenanceTransactionsSerializeOnConflicts) {
  // Two ViewManager deltas run back-to-back (each commits) — with locking
  // enabled, each must acquire and fully release its footprint.
  SystemConfig cfg = LockingConfig();
  ParallelSystem sys(cfg);
  sys.CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
  sys.CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
  for (int64_t k = 0; k < 10; ++k) {
    sys.Insert("B", {Value{k}, Value{k % 5}, Value{k}}).Check();
  }
  ViewManager manager(&sys);
  JoinViewDef def;
  def.name = "JV";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  def.partition_on = ColumnRef{"A", "e"};
  ASSERT_TRUE(manager.RegisterView(def, MaintenanceMethod::kAuxRelation).ok());
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(manager.InsertRow("A", {Value{i}, Value{i % 5}, Value{i}}).ok())
        << i;
    EXPECT_EQ(sys.locks().TotalLocks(), 0u) << "locks leaked after txn " << i;
  }
  ASSERT_TRUE(manager.CheckAllConsistent().ok())
      << manager.CheckAllConsistent();
}

// ------------------------------------------------------------- Wait-die

TEST(WaitDieTest, YoungerRequesterDiesImmediately) {
  LockManager lm;
  lm.set_wait_timeout_ms(5000);
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(1, id, LockMode::kExclusive).ok());
  // txn 2 is younger than the holder: killed without parking (the 5 s
  // timeout would hang the test if it waited).
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).IsAborted());
  EXPECT_TRUE(lm.Acquire(2, id, LockMode::kShared).IsAborted());
}

TEST(WaitDieTest, OlderRequesterWaitsUntilRelease) {
  LockManager lm;
  lm.set_wait_timeout_ms(10000);
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread older([&] {
    Status st = lm.Acquire(1, id, LockMode::kExclusive);
    EXPECT_TRUE(st.ok()) << st;
    acquired.store(true);
  });
  // The older transaction parks rather than dying...
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  // ...and is granted the lock once the younger holder releases.
  lm.ReleaseAll(2);
  older.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lm.Holds(1, id, LockMode::kExclusive));
}

TEST(WaitDieTest, WaitTimesOutWhenHolderNeverReleases) {
  LockManager lm;
  lm.set_wait_timeout_ms(30);
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).ok());
  // Older waiter, but the holder never releases: bounded by the timeout.
  EXPECT_TRUE(lm.Acquire(1, id, LockMode::kExclusive).IsAborted());
  EXPECT_FALSE(lm.Holds(1, id, LockMode::kExclusive));
}

TEST(WaitDieTest, ZeroTimeoutAbortsOlderRequesterImmediately) {
  // A zero wait timeout is the no-wait configuration: even an older
  // requester, which wait-die would park, aborts at once without waiting.
  LockManager lm;
  lm.set_wait_timeout_ms(0);
  LockId id = LockId::Key(0, kT, Value{5});
  ASSERT_TRUE(lm.Acquire(2, id, LockMode::kExclusive).ok());
  Counter* waits = MetricsRegistry::Global().counter("pjvm_lock_waits");
  const uint64_t waits_before = waits->value();
  const auto t0 = std::chrono::steady_clock::now();
  Status st = lm.Acquire(1, id, LockMode::kExclusive);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(st.IsAborted()) << st;
  EXPECT_EQ(waits->value(), waits_before);
  // A small fraction of the default 500 ms timeout.
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  EXPECT_FALSE(lm.Holds(1, id, LockMode::kExclusive));
}

TEST(WaitDieTest, OppositeOrderAcquisitionTerminates) {
  // txn 1 (older) holds a, txn 2 (younger) holds b; each then requests the
  // other's lock. Plain blocking 2PL deadlocks here; wait-die must kill the
  // younger and let the older proceed, in bounded time.
  LockManager lm;
  lm.set_wait_timeout_ms(10000);
  LockId a = LockId::Key(0, kT, Value{1});
  LockId b = LockId::Key(0, kT, Value{2});
  ASSERT_TRUE(lm.Acquire(1, a, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, b, LockMode::kExclusive).ok());
  Status st1;
  std::thread older([&] { st1 = lm.Acquire(1, b, LockMode::kExclusive); });
  // Give the older transaction a moment to park on b.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // The younger requests a, held by an older transaction: it dies.
  Status st2 = lm.Acquire(2, a, LockMode::kExclusive);
  EXPECT_TRUE(st2.IsAborted()) << st2;
  // The victim rolls back, which wakes and grants the older waiter.
  lm.ReleaseAll(2);
  older.join();
  EXPECT_TRUE(st1.ok()) << st1;
  EXPECT_TRUE(lm.Holds(1, a, LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, b, LockMode::kExclusive));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(WaitDieTest, MultiThreadStressTerminatesAndReleases) {
  LockManager lm;
  lm.set_wait_timeout_ms(1000);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 100;
  constexpr int64_t kKeys = 4;  // small key space: plenty of conflicts
  std::atomic<uint64_t> next_txn{1};
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed + static_cast<uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        uint64_t txn = next_txn.fetch_add(1);
        bool ok = true;
        for (int j = 0; j < 2 && ok; ++j) {
          LockId id = LockId::Key(0, kT, Value{rng.UniformInt(0, kKeys - 1)});
          LockMode mode =
              rng.Bernoulli(0.5) ? LockMode::kShared : LockMode::kExclusive;
          ok = lm.Acquire(txn, id, mode).ok();
        }
        if (ok) commits.fetch_add(1);
        lm.ReleaseAll(txn);  // commit and abort both release everything
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lm.TotalLocks(), 0u);
  EXPECT_GT(commits.load(), 0u);
}

// ------------------------------------------------- Maintenance retry loop

SystemConfig WaitDieConfig(int max_attempts, int base_us) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 4;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 200;
  cfg.maintain_max_attempts = max_attempts;
  cfg.maintain_retry_base_us = base_us;
  return cfg;
}

void RegisterSimpleView(ParallelSystem& sys, ViewManager& manager) {
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
}

TEST(MaintenanceRetryTest, RetriesUntilConflictClears) {
  ParallelSystem sys(WaitDieConfig(/*max_attempts=*/8, /*base_us=*/1000));
  ViewManager manager(&sys);
  RegisterSimpleView(sys, manager);
  // A raw transaction holds X locks on the row the maintenance transaction
  // needs. The maintenance txn is younger, so every attempt dies instantly;
  // the retry loop backs off until the blocker goes away.
  Row contested = {Value{100}, Value{1}, Value{1}};
  uint64_t blocker = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", contested, blocker).ok());
  Counter* retries = MetricsRegistry::Global().counter("pjvm_maintain_retries");
  const uint64_t retries_before = retries->value();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Abort (not commit): a raw insert bypasses view maintenance, so letting
    // it commit would legitimately diverge the view from its bases.
    sys.Abort(blocker).Check();
  });
  Result<MaintenanceReport> result = manager.InsertRow("A", contested);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(retries->value() - retries_before, 1u);
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
  ASSERT_TRUE(manager.CheckAllConsistent().ok());
}

TEST(MaintenanceRetryTest, ExhaustedRetriesSurfaceAborted) {
  ParallelSystem sys(WaitDieConfig(/*max_attempts=*/2, /*base_us=*/200));
  ViewManager manager(&sys);
  RegisterSimpleView(sys, manager);
  Row contested = {Value{100}, Value{1}, Value{1}};
  uint64_t blocker = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", contested, blocker).ok());
  // The blocker never releases: both attempts die and the Aborted status
  // reaches the client.
  Result<MaintenanceReport> result = manager.InsertRow("A", contested);
  EXPECT_TRUE(result.status().IsAborted()) << result.status();
  ASSERT_TRUE(sys.Abort(blocker).ok());
  // With the conflict gone the same delta goes through.
  ASSERT_TRUE(manager.InsertRow("A", contested).ok());
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
  ASSERT_TRUE(manager.CheckAllConsistent().ok());
}

// ------------------------------------------------------ Lock-table shards

TEST(LockShardTest, BookkeepingSpansShards) {
  // One transaction locking many (node, table) fragments lands in several
  // shards; the aggregate views and ReleaseAll must stitch them together.
  LockManager lm;
  uint64_t txn = 1;
  const TableId tables[] = {0, 1, 2, 3};
  for (int node = 0; node < 8; ++node) {
    for (TableId table : tables) {
      ASSERT_TRUE(
          lm.Acquire(txn, LockId::Key(node, table, Value{node}), LockMode::kExclusive)
              .ok());
    }
  }
  EXPECT_EQ(lm.HeldCount(txn), 32u);
  EXPECT_EQ(lm.TotalLocks(), 32u);
  EXPECT_TRUE(
      lm.Holds(txn, LockId::Key(3, tables[1], Value{3}), LockMode::kExclusive));
  lm.ReleaseAll(txn);
  EXPECT_EQ(lm.HeldCount(txn), 0u);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockShardTest, TableCoverageStaysWithinOneShard) {
  // Table-lock ↔ key-lock conflicts are detected in the sharded table: all
  // locks of one (node, table) fragment share a shard by construction.
  LockManager lm;
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Key(0, kT, Value{7}), LockMode::kExclusive).ok());
  EXPECT_TRUE(
      lm.Acquire(2, LockId::Table(0, kT), LockMode::kExclusive).IsAborted());
  EXPECT_TRUE(
      lm.Acquire(2, LockId::Key(1, kT, Value{7}), LockMode::kExclusive).ok());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockShardTest, MultiThreadStressAcrossShards) {
  // The wait-die stress spread over many fragments, so acquires and
  // release-wakeups genuinely run on different shards concurrently.
  LockManager lm;
  lm.set_wait_timeout_ms(1000);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 100;
  constexpr int64_t kKeys = 4;
  const TableId tables[] = {0, 1, 2, 3};
  std::atomic<uint64_t> next_txn{1};
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xfeed + static_cast<uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        uint64_t txn = next_txn.fetch_add(1);
        bool ok = true;
        for (int j = 0; j < 3 && ok; ++j) {
          LockId id = LockId::Key(static_cast<int>(rng.UniformInt(0, 3)),
                                  tables[rng.UniformInt(0, 3)],
                                  Value{rng.UniformInt(0, kKeys - 1)});
          LockMode mode =
              rng.Bernoulli(0.5) ? LockMode::kShared : LockMode::kExclusive;
          ok = lm.Acquire(txn, id, mode).ok();
        }
        if (ok) commits.fetch_add(1);
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lm.TotalLocks(), 0u);
  EXPECT_GT(commits.load(), 0u);
}

// --------------------------------------------------------- Lock escalation

TEST(LockEscalationTest, KeyLocksCollapseIntoFragmentLock) {
  LockManager lm;
  lm.set_escalation_threshold(4);
  Counter* escalations =
      MetricsRegistry::Global().counter("pjvm_lock_escalations");
  Counter* reclaimed =
      MetricsRegistry::Global().counter("pjvm_lock_entries_reclaimed");
  const uint64_t esc0 = escalations->value();
  const uint64_t rec0 = reclaimed->value();
  // The transaction's ledger: escalations land in the meter active on the
  // acquiring thread.
  CostTracker::TxnMeter meter(1);
  std::optional<CostTracker::MeterScope> scope(std::in_place, &meter);
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  EXPECT_EQ(lm.TotalLocks(), 3u);
  // The threshold-crossing grant swaps the key entries for one fragment lock.
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Key(0, kT, Value{3}), LockMode::kExclusive).ok());
  EXPECT_EQ(lm.TotalLocks(), 1u);
  EXPECT_EQ(lm.HeldCount(1), 1u);
  EXPECT_TRUE(lm.Holds(1, LockId::Table(0, kT), LockMode::kExclusive));
  // Coverage: the reclaimed keys still count as held...
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(lm.Holds(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive))
        << k;
  }
  // ...and later key acquires are answered by the fragment lock without
  // creating new entries.
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Key(0, kT, Value{99}), LockMode::kExclusive).ok());
  EXPECT_EQ(lm.TotalLocks(), 1u);
  EXPECT_EQ(escalations->value() - esc0, 1u);
  EXPECT_EQ(reclaimed->value() - rec0, 4u);
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 1u);
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kLockEntriesReclaimed), 4u);
  lm.ReleaseAll(1);
  scope.reset();
  EXPECT_EQ(lm.TotalLocks(), 0u);
  // The fragment is free again for others, and their own (fresh) meter
  // carries none of txn 1's tally.
  CostTracker::TxnMeter fresh(1);
  CostTracker::MeterScope fresh_scope(&fresh);
  EXPECT_TRUE(
      lm.Acquire(2, LockId::Key(0, kT, Value{0}), LockMode::kExclusive).ok());
  EXPECT_EQ(fresh.Get(CostTracker::TxnMeter::kEscalations), 0u);
  EXPECT_EQ(fresh.Get(CostTracker::TxnMeter::kLockEntriesReclaimed), 0u);
}

TEST(LockEscalationTest, ThresholdZeroDisablesEscalation) {
  LockManager lm;  // default threshold: 0 (off)
  CostTracker::TxnMeter meter(1);
  CostTracker::MeterScope scope(&meter);
  for (int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  EXPECT_EQ(lm.TotalLocks(), 32u);
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 0u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockEscalationTest, ReacquisitionDoesNotInflateTheCount) {
  // Re-granting an already-held key must not count toward the threshold:
  // only distinct key entries fill the lock table.
  LockManager lm;
  lm.set_escalation_threshold(4);
  CostTracker::TxnMeter meter(1);
  CostTracker::MeterScope scope(&meter);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{0}), LockMode::kExclusive)
            .ok());
  }
  EXPECT_EQ(lm.TotalLocks(), 1u);
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 0u);
  lm.ReleaseAll(1);
}

TEST(LockEscalationTest, EscalatedModeMatchesStrongestKeyLock) {
  // All-shared footprint escalates to a shared fragment lock: other readers
  // of the fragment proceed, a writer conflicts.
  LockManager lm;
  lm.set_escalation_threshold(4);
  for (int64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kShared).ok());
  }
  EXPECT_EQ(lm.TotalLocks(), 1u);
  EXPECT_TRUE(lm.Holds(1, LockId::Table(0, kT), LockMode::kShared));
  EXPECT_FALSE(lm.Holds(1, LockId::Table(0, kT), LockMode::kExclusive));
  EXPECT_TRUE(
      lm.Acquire(2, LockId::Key(0, kT, Value{50}), LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(3, LockId::Key(0, kT, Value{51}), LockMode::kExclusive)
                  .IsAborted());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);

  // One exclusive key in the footprint forces an exclusive fragment lock.
  LockManager lm2;
  lm2.set_escalation_threshold(4);
  ASSERT_TRUE(
      lm2.Acquire(1, LockId::Key(0, kT, Value{0}), LockMode::kExclusive).ok());
  for (int64_t k = 1; k < 4; ++k) {
    ASSERT_TRUE(
        lm2.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kShared).ok());
  }
  EXPECT_TRUE(lm2.Holds(1, LockId::Table(0, kT), LockMode::kExclusive));
  EXPECT_TRUE(
      lm2.Acquire(2, LockId::Key(0, kT, Value{50}), LockMode::kShared)
          .IsAborted());
  lm2.ReleaseAll(1);
}

TEST(LockEscalationTest, FragmentsCountIndependently) {
  LockManager lm;
  lm.set_escalation_threshold(4);
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(1, kT, Value{k}), LockMode::kExclusive)
            .ok());
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kU, Value{k}), LockMode::kExclusive)
            .ok());
  }
  // 3 keys on each of three fragments: below threshold everywhere.
  EXPECT_EQ(lm.TotalLocks(), 9u);
  // Crossing on (node 0, T) escalates only that fragment.
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Key(0, kT, Value{3}), LockMode::kExclusive).ok());
  EXPECT_EQ(lm.TotalLocks(), 7u);  // 1 fragment lock + 3 + 3 key locks
  EXPECT_TRUE(lm.Holds(1, LockId::Table(0, kT), LockMode::kExclusive));
  EXPECT_FALSE(lm.Holds(1, LockId::Table(1, kT), LockMode::kShared));
  EXPECT_FALSE(lm.Holds(1, LockId::Table(0, kU), LockMode::kShared));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockEscalationTest, FailedEscalationAbortsTriggeringAcquire) {
  // An older transaction's key lock on the fragment blocks the escalated
  // fragment lock; wait-die kills the younger escalator, so the
  // threshold-crossing Acquire surfaces Aborted, and the caller's rollback
  // releases the keys it did get.
  LockManager lm;
  lm.set_escalation_threshold(4);
  ASSERT_TRUE(
      lm.Acquire(1, LockId::Key(0, kT, Value{99}), LockMode::kShared).ok());
  CostTracker::TxnMeter meter(1);
  CostTracker::MeterScope scope(&meter);
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        lm.Acquire(2, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  Status st = lm.Acquire(2, LockId::Key(0, kT, Value{3}), LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st;
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 0u);
  // The key locks (including the just-granted trigger) stay intact until the
  // caller rolls back — the transaction never loses coverage mid-flight.
  EXPECT_EQ(lm.HeldCount(2), 4u);
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.Holds(1, LockId::Key(0, kT, Value{99}), LockMode::kShared));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockEscalationTest, EscalationDegradesToAbortWhenItMustNotBlock) {
  // An executor worker (or latch holder) may never park; when the fragment
  // lock would require waiting, the threshold-crossing Acquire aborts
  // instead — the same contract as any other would-wait in that context.
  LockManager lm;
  lm.set_wait_timeout_ms(10000);  // would hang the test if it parked
  lm.set_escalation_threshold(4);
  ASSERT_TRUE(
      lm.Acquire(2, LockId::Key(0, kT, Value{99}), LockMode::kExclusive).ok());
  CostTracker::TxnMeter meter(1);
  CostTracker::MeterScope scope(&meter);
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  // txn 1 is older than the holder, so wait-die would normally park it.
  WorkerContext::is_executor_worker = true;
  Status st = lm.Acquire(1, LockId::Key(0, kT, Value{3}), LockMode::kExclusive);
  WorkerContext::is_executor_worker = false;
  EXPECT_TRUE(st.IsAborted()) << st;
  EXPECT_NE(st.ToString().find("non-blocking"), std::string::npos) << st;
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 0u);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockEscalationTest, WaitDieReclaimWakesParkedWaiterOntoFragmentLock) {
  LockManager lm;
  lm.set_wait_timeout_ms(10000);
  lm.set_escalation_threshold(4);
  LockId contested = LockId::Key(0, kT, Value{0});
  // Younger txn 2 holds the contested key; older txn 1 parks on it.
  ASSERT_TRUE(lm.Acquire(2, contested, LockMode::kExclusive).ok());
  std::atomic<bool> granted{false};
  std::thread older([&] {
    Status st = lm.Acquire(1, contested, LockMode::kExclusive);
    EXPECT_TRUE(st.ok()) << st;
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  // txn 2 crosses the threshold and escalates. The reclaim wakes the parked
  // waiter, which re-evaluates, now conflicts with the fragment lock, and
  // parks again (it is older than the holder, so wait-die lets it wait).
  CostTracker::TxnMeter meter(1);
  {
    CostTracker::MeterScope scope(&meter);
    for (int64_t k = 1; k < 4; ++k) {
      ASSERT_TRUE(
          lm.Acquire(2, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
              .ok());
    }
  }
  EXPECT_EQ(meter.Get(CostTracker::TxnMeter::kEscalations), 1u);
  EXPECT_TRUE(lm.Holds(2, LockId::Table(0, kT), LockMode::kExclusive));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  // The escalated holder finishing hands the key to the waiter.
  lm.ReleaseAll(2);
  older.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(lm.Holds(1, contested, LockMode::kExclusive));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.TotalLocks(), 0u);
}

TEST(LockEscalationTest, PeakShardEntriesTracksHighWaterMark) {
  LockManager lm;  // one fragment: every entry lands in the same shard
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(
        lm.Acquire(1, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  EXPECT_EQ(lm.PeakShardEntries(), 10u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.PeakShardEntries(), 10u);  // the peak persists past release
  lm.ResetPeakEntries();
  EXPECT_EQ(lm.PeakShardEntries(), 0u);
  // With escalation the same footprint peaks at threshold + 1 (the keys
  // plus the fragment lock, just before the reclaim), not the key count.
  lm.set_escalation_threshold(4);
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(
        lm.Acquire(2, LockId::Key(0, kT, Value{k}), LockMode::kExclusive)
            .ok());
  }
  EXPECT_EQ(lm.PeakShardEntries(), 5u);
  lm.ReleaseAll(2);
}

SystemConfig EscalationConfig(int threshold) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  cfg.maintain_max_attempts = 8;
  cfg.maintain_retry_base_us = 1000;
  cfg.lock_escalation_threshold = threshold;
  return cfg;
}

TEST(LockEscalationTest, BulkDeltaEscalatesAndStaysConsistent) {
  // End to end: a bulk maintenance delta's per-row key locks collapse into
  // fragment locks, the peak lock-table footprint drops accordingly, and
  // the view still matches the from-scratch join.
  auto run = [](int threshold, uint64_t* escalations, size_t* peak) {
    ParallelSystem sys(EscalationConfig(threshold));
    ViewManager manager(&sys);
    RegisterSimpleView(sys, manager);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 64; ++i) {
      rows.push_back({Value{1000 + i}, Value{i % 5}, Value{i}});
    }
    sys.locks().ResetPeakEntries();
    MaintenanceAnalysis analysis;
    manager.ApplyDelta(DeltaBatch::Inserts("A", std::move(rows)), &analysis)
        .status()
        .Check();
    EXPECT_EQ(sys.locks().TotalLocks(), 0u);
    ASSERT_TRUE(manager.CheckAllConsistent().ok());
    *escalations = analysis.escalations;
    *peak = sys.locks().PeakShardEntries();
  };
  uint64_t esc_off = 0, esc_on = 0;
  size_t peak_off = 0, peak_on = 0;
  run(/*threshold=*/0, &esc_off, &peak_off);
  run(/*threshold=*/8, &esc_on, &peak_on);
  EXPECT_EQ(esc_off, 0u);
  EXPECT_GT(esc_on, 0u);
  EXPECT_LT(peak_on, peak_off);
}

TEST(LockEscalationTest, MaintenanceRetryAbsorbsEscalationConflicts) {
  // A blocker's key lock on the delta's fragment makes the escalating
  // maintenance transaction abort (wait-die: the maintenance txn is
  // younger); the bounded retry loop absorbs the aborts and commits once
  // the blocker goes away.
  ParallelSystem sys(EscalationConfig(/*threshold=*/8));
  ViewManager manager(&sys);
  RegisterSimpleView(sys, manager);
  Row contested = {Value{100}, Value{1}, Value{1}};
  uint64_t blocker = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", contested, blocker).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sys.Abort(blocker).Check();
  });
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back({Value{1000 + i}, Value{i % 5}, Value{i}});
  }
  MaintenanceAnalysis analysis;
  Result<MaintenanceReport> result =
      manager.ApplyDelta(DeltaBatch::Inserts("A", std::move(rows)), &analysis);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(analysis.escalations, 0u);
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
  ASSERT_TRUE(manager.CheckAllConsistent().ok());
}

// -------------------------------------------------- Reader/writer latches

TEST(NodeLatchTest, SharedHoldersOverlap) {
  NodeLatch latch;
  std::atomic<int> inside{0};
  std::atomic<bool> both_seen{false};
  auto reader = [&] {
    latch.AcquireShared();
    inside.fetch_add(1);
    // Spin until the other reader is inside too (bounded): overlap proves
    // shared mode admits concurrent readers.
    for (int i = 0; i < 2000 && inside.load() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (inside.load() >= 2) both_seen.store(true);
    inside.fetch_sub(1);
    latch.ReleaseShared();
  };
  std::thread t1(reader), t2(reader);
  t1.join();
  t2.join();
  EXPECT_TRUE(both_seen.load());
}

TEST(NodeLatchTest, WriterExcludesReadersAndWriters) {
  NodeLatch latch;
  latch.AcquireExclusive();
  std::atomic<bool> reader_in{false};
  std::atomic<bool> writer_in{false};
  std::thread reader([&] {
    latch.AcquireShared();
    reader_in.store(true);
    latch.ReleaseShared();
  });
  std::thread writer([&] {
    latch.AcquireExclusive();
    writer_in.store(true);
    latch.ReleaseExclusive();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(reader_in.load());
  EXPECT_FALSE(writer_in.load());
  latch.ReleaseExclusive();
  reader.join();
  writer.join();
  EXPECT_TRUE(reader_in.load());
  EXPECT_TRUE(writer_in.load());
}

TEST(NodeLatchTest, ExclusiveIsReentrant) {
  NodeLatch latch;
  latch.AcquireExclusive();
  latch.AcquireExclusive();
  // Exclusive subsumes shared on the owning thread.
  latch.AcquireShared();
  latch.ReleaseShared();
  latch.ReleaseExclusive();
  latch.ReleaseExclusive();
  std::atomic<bool> acquired{false};
  std::thread other([&] {
    latch.AcquireExclusive();
    acquired.store(true);
    latch.ReleaseExclusive();
  });
  other.join();
  EXPECT_TRUE(acquired.load());
}

TEST(NodeLatchTest, NestedSharedSkipsWaitingWriterGate) {
  // A shared holder re-acquiring shared must not queue behind a waiting
  // writer — that would deadlock (writer waits for readers, reader waits
  // for writer).
  NodeLatch latch;
  latch.AcquireShared();
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    latch.AcquireExclusive();
    writer_in.store(true);
    latch.ReleaseExclusive();
  });
  // Give the writer time to start waiting, then nest a shared acquire.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  latch.AcquireShared();  // must not block
  latch.ReleaseShared();
  latch.ReleaseShared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(EngineLockingTest, CrashClearsLockTable) {
  ParallelSystem sys(LockingConfig());
  ASSERT_TRUE(sys.CreateTable(SimpleTable()).ok());
  uint64_t t1 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{1}, Value{1}}, t1).ok());
  sys.Crash();
  EXPECT_EQ(sys.locks().TotalLocks(), 0u);
  ASSERT_TRUE(sys.Recover().ok());
  uint64_t t2 = sys.Begin();
  EXPECT_TRUE(sys.Insert("T", {Value{1}, Value{1}}, t2).ok());
  ASSERT_TRUE(sys.Commit(t2).ok());
}

// ------------------------------------------------ GI stale-entry race

// Client threads insert A rows (half of them on the hot join key 0) while
// the same threads delete B rows on that key. A global-index step whose
// fetch finds a B row that a concurrent delete removed must surface as a
// retried Aborted, never as an Internal error the client sees.
TEST(GiStaleEntryRaceTest, ConcurrentDeletesNeverSurfaceInternal) {
  constexpr int kThreads = 4;
  constexpr int kOps = 100;
  constexpr int kDeleteWindow = 50;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SystemConfig cfg = TwoTableFixture::Config(4, /*rows_per_page=*/8);
    cfg.enable_locking = true;
    TwoTableFixture f(cfg, /*b_keys=*/20, /*fanout=*/200);
    ASSERT_TRUE(f.manager
                    ->RegisterView(f.MakeView("JV"),
                                   MaintenanceMethod::kGlobalIndex)
                    .ok());
    std::atomic<int64_t> next_a{0};
    std::vector<std::vector<Status>> statuses(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(seed * 1000 + t);
        // Thread t owns the distinct key-0 B rows t*kDeleteWindow onwards.
        int64_t next_b = t * kDeleteWindow;
        for (int op = 0; op < kOps; ++op) {
          if (op < kDeleteWindow && rng.Bernoulli(0.5)) {
            const int64_t b = next_b++;
            statuses[t].push_back(
                f.manager->DeleteRow("B", {Value{b}, Value{0}, Value{b * 10}})
                    .status());
            continue;
          }
          const int64_t key = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(0, 19);
          const int64_t a = next_a.fetch_add(1);
          statuses[t].push_back(
              f.manager->InsertRow("A", {Value{a}, Value{key}, Value{a * 100}})
                  .status());
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::vector<Status>& per_thread : statuses) {
      for (const Status& st : per_thread) {
        EXPECT_TRUE(st.ok() || st.IsAborted()) << "seed " << seed << ": " << st;
      }
    }
    Status consistent = f.manager->CheckAllConsistent();
    ASSERT_TRUE(consistent.ok()) << "seed " << seed << ": " << consistent;
  }
}

}  // namespace
}  // namespace pjvm
