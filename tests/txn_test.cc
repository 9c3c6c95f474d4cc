#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "engine/system.h"
#include "obs/metrics_registry.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace pjvm {
namespace {

// Table ids for the tests that drive a Wal or TxnManager alone.
constexpr TableId kT = 0;
constexpr TableId kV = 1;

Schema AbSchema() {
  return Schema({{"a", ValueType::kInt64}, {"c", ValueType::kInt64}});
}

TableDef HashTableDef(const std::string& name, const std::string& col) {
  TableDef def;
  def.name = name;
  def.schema = AbSchema();
  def.partition = PartitionSpec::Hash(col);
  return def;
}

SystemConfig SmallConfig(int nodes = 4) {
  SystemConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rows_per_page = 4;
  return cfg;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return RowToString(a) < RowToString(b);
  });
  return rows;
}

// ---------------------------------------------------------------- Wal

TEST(WalTest, AppendsAssignIncreasingLsns) {
  Wal wal;
  uint64_t a = wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  uint64_t b = wal.Append(1, LogRecordType::kCommit, kNoTable);
  EXPECT_LT(a, b);
  EXPECT_EQ(wal.size(), 2u);
}

TEST(WalTest, ReplaySkipsUncommittedAndControl) {
  Wal wal;
  wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  wal.Append(2, LogRecordType::kInsert, kT, Row{Value{2}});
  wal.Append(1, LogRecordType::kCommit, kNoTable);
  std::vector<int64_t> applied;
  wal.ReplayCommitted([](uint64_t txn) { return txn == 1; },
                      [&](const LogRecord& rec) {
                        applied.push_back(rec.row[0].AsInt64());
                      });
  EXPECT_EQ(applied, (std::vector<int64_t>{1}));
}

TEST(WalTest, ClearKeepsLsnsMonotonic) {
  Wal wal;
  uint64_t a = wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  uint64_t b = wal.Append(1, LogRecordType::kCommit, kNoTable);
  ASSERT_LT(a, b);
  const uint64_t next_before = wal.next_lsn();
  wal.Clear();
  // Truncation drops records but never rewinds the LSN counter: an LSN
  // identifies one append forever.
  EXPECT_EQ(wal.size(), 0u);
  EXPECT_EQ(wal.next_lsn(), next_before);
  uint64_t c = wal.Append(2, LogRecordType::kInsert, kT, Row{Value{3}});
  EXPECT_GT(c, b);
}

// Compares rows value by value on type and exact payload: a DOUBLE by its
// bit pattern, so -0.0 and a NaN's payload must survive unchanged.
void ExpectSameBits(const Row& want, const Row& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].type(), got[i].type()) << "column " << i;
    if (want[i].is_double()) {
      EXPECT_EQ(std::bit_cast<uint64_t>(want[i].AsDouble()),
                std::bit_cast<uint64_t>(got[i].AsDouble()))
          << "column " << i;
    } else {
      EXPECT_EQ(want[i], got[i]) << "column " << i;
    }
  }
}

TEST(WalTest, RecordsRoundTripEveryValueType) {
  const Row data = {
      Value{std::numeric_limits<int64_t>::min()},
      Value{std::numeric_limits<int64_t>::max()},
      Value{int64_t{-42}},
      Value{-0.0},
      Value{std::bit_cast<double>(uint64_t{0x7ff8'0000'dead'beefULL})},
      Value{std::numeric_limits<double>::infinity()},
      Value{-std::numeric_limits<double>::infinity()},
      Value{std::string()},
      Value{std::string("a\0b", 3)},
  };
  const Row escrow = {Value{int64_t{7}}, Value{"g"}, Value{int64_t{-3}},
                      Value{2.5}};
  Wal wal;
  const uint64_t a = wal.Append(11, LogRecordType::kInsert, kT, data);
  const uint64_t b = wal.Append(11, LogRecordType::kDelete, kT, Row{});
  const uint64_t c =
      wal.Append(12, LogRecordType::kEscrowDelta, kV, escrow, /*aux=*/2);
  const uint64_t d = wal.Append(11, LogRecordType::kCommit, kNoTable);

  const std::vector<LogRecord> recs = wal.records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].lsn, a);
  EXPECT_EQ(recs[0].txn_id, 11u);
  EXPECT_EQ(recs[0].type, LogRecordType::kInsert);
  EXPECT_EQ(recs[0].table, kT);
  EXPECT_EQ(recs[0].aux, 0);
  ExpectSameBits(data, recs[0].row);
  EXPECT_EQ(recs[0].row[8].AsString().size(), 3u);  // the NUL survives
  EXPECT_EQ(recs[1].lsn, b);
  EXPECT_EQ(recs[1].type, LogRecordType::kDelete);
  EXPECT_TRUE(recs[1].row.empty());
  EXPECT_EQ(recs[2].lsn, c);
  EXPECT_EQ(recs[2].txn_id, 12u);
  EXPECT_EQ(recs[2].type, LogRecordType::kEscrowDelta);
  EXPECT_EQ(recs[2].table, kV);
  EXPECT_EQ(recs[2].aux, 2);
  ExpectSameBits(escrow, recs[2].row);
  EXPECT_EQ(recs[3].lsn, d);
  EXPECT_EQ(recs[3].type, LogRecordType::kCommit);
  EXPECT_EQ(recs[3].table, kNoTable);
  EXPECT_TRUE(recs[3].row.empty());

  // Replay decodes the same bytes through one reused record: a shorter row
  // after a longer one must not keep stale columns.
  std::vector<LogRecord> replayed;
  wal.ReplayCommitted([](uint64_t) { return true; },
                      [&](const LogRecord& rec) { replayed.push_back(rec); });
  ASSERT_EQ(replayed.size(), 3u);  // the commit record is not data
  ExpectSameBits(data, replayed[0].row);
  EXPECT_TRUE(replayed[1].row.empty());
  EXPECT_EQ(replayed[2].aux, 2);
  ExpectSameBits(escrow, replayed[2].row);
}

// A TPC-R-shaped row whose every column derives from `i`.
Row WideRow(int64_t i) {
  return {Value{i}, Value{i * 7}, Value{"customer#" + std::to_string(i)},
          Value{static_cast<double>(i) / 4}, Value{-i}};
}

// Checks the log holds exactly `lsns`, in order, each with WideRow(lsn).
void ExpectRecords(const Wal& wal, const std::vector<uint64_t>& lsns) {
  const std::vector<LogRecord> recs = wal.records();
  ASSERT_EQ(wal.size(), lsns.size());
  ASSERT_EQ(recs.size(), lsns.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(recs[i].lsn, lsns[i]) << "record " << i;
    ExpectSameBits(WideRow(static_cast<int64_t>(lsns[i])), recs[i].row);
  }
}

TEST(WalTest, ClearAndDiscardCutAtRecordBoundaries) {
  // ~90-byte records: 3,000 of them span several 64 KiB blocks, and one
  // 100 KB string gets a block of its own.
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/1, /*window_us=*/0);
  auto append = [&wal](int n, std::vector<uint64_t>* lsns) {
    for (int i = 0; i < n; ++i) {
      const uint64_t lsn = wal.next_lsn();
      lsns->push_back(
          wal.Append(1, LogRecordType::kInsert, kT, WideRow(lsn)));
      ASSERT_EQ(lsns->back(), lsn);
    }
  };
  std::vector<uint64_t> lsns;
  append(1500, &lsns);
  const uint64_t big =
      wal.Append(1, LogRecordType::kInsert, kT,
                 Row{Value{std::string(100'000, 'x')}});
  append(500, &lsns);
  // A force covers everything appended so far.
  ASSERT_TRUE(wal.Force(lsns.back()).ok());
  ASSERT_EQ(wal.durable_lsn(), lsns.back());
  append(1000, &lsns);

  // Suffix cut inside a block: everything above the watermark goes.
  wal.DiscardUnforced();
  {
    std::vector<LogRecord> recs = wal.records();
    ASSERT_EQ(recs.size(), 2001u);
    EXPECT_EQ(recs[1499].lsn, lsns[1499]);
    EXPECT_EQ(recs[1500].lsn, big);
    EXPECT_EQ(recs[1501].lsn, lsns[1500]);
    EXPECT_EQ(recs.back().lsn, lsns[1999]);
    ExpectSameBits(WideRow(static_cast<int64_t>(lsns[1999])),
                   recs.back().row);
    EXPECT_EQ(recs[1500].row[0].AsString().size(), 100'000u);
  }
  // Appends continue after the cut, into the truncated block's free space.
  std::vector<uint64_t> more;
  append(700, &more);
  EXPECT_GT(more.front(), lsns.back());
  ASSERT_TRUE(wal.Force(more.back()).ok());
  // With everything forced, a crash loses nothing.
  wal.DiscardUnforced();
  EXPECT_EQ(wal.size(), 2001u + 700u);

  // Prefix cut: a checkpoint frees every record it covers.
  const uint64_t next = wal.next_lsn();
  wal.Clear();
  EXPECT_EQ(wal.size(), 0u);
  EXPECT_TRUE(wal.records().empty());
  EXPECT_EQ(wal.next_lsn(), next);
  std::vector<uint64_t> after;
  append(1200, &after);
  EXPECT_EQ(after.front(), next);
  ExpectRecords(wal, after);

  // A suffix cut that frees whole blocks: only the 100 forced records of
  // the first block survive.
  wal.Clear();
  std::vector<uint64_t> tail;
  append(100, &tail);
  ASSERT_TRUE(wal.Force(tail.back()).ok());
  append(2500, &tail);
  wal.DiscardUnforced();
  ExpectRecords(wal, std::vector<uint64_t>(tail.begin(), tail.begin() + 100));

  // A checkpoint racing appends from another thread keeps exactly the
  // records its truncation point did not cover: a contiguous LSN suffix.
  std::vector<uint64_t> raced;
  std::thread appender([&] { append(3000, &raced); });
  wal.Clear();
  appender.join();
  std::vector<uint64_t> survivors;
  for (const LogRecord& rec : wal.records()) survivors.push_back(rec.lsn);
  ASSERT_LE(survivors.size(), raced.size());
  ExpectRecords(wal, std::vector<uint64_t>(raced.end() - survivors.size(),
                                           raced.end()));
}

// ----------------------------------------------------------- Group commit

TEST(GroupCommitTest, FreeForcingKeepsDurableOnAppendSemantics) {
  // The default (force_ns == 0): every append is durable immediately and a
  // crash loses nothing from the log — the pre-group-commit model.
  Wal wal;
  uint64_t a = wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  EXPECT_EQ(wal.durable_lsn(), a);
  ASSERT_TRUE(wal.Force(a).ok());
  wal.DiscardUnforced();
  EXPECT_EQ(wal.size(), 1u);
}

TEST(GroupCommitTest, LeaderBatchesConcurrentForces) {
  // 8 threads append + force concurrently against a 20ms simulated device.
  // Serialized per-txn forces would cost ~160ms; group commit amortizes the
  // device writes across one or two leader rounds.
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/20'000'000, /*window_us=*/5000);
  LatencyHistogram* batches = MetricsRegistry::Global().histogram(
      "pjvm_group_commit_batch_size");
  const HistogramData before = batches->Snapshot();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  threads.reserve(kThreads);
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t lsn = wal.Append(static_cast<uint64_t>(t + 1),
                                LogRecordType::kPrepare, kNoTable);
      ready.fetch_add(1);
      EXPECT_TRUE(wal.Force(lsn).ok());
      EXPECT_GE(wal.durable_lsn(), lsn);
    });
  }
  for (auto& th : threads) th.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_EQ(wal.durable_lsn(), wal.next_lsn() - 1);
  // Well under the 160ms a serialized run would need (leader rounds cost
  // window + force each; two rounds is the realistic worst case).
  EXPECT_LT(wall_ms, 120.0);
  const HistogramData after = batches->Snapshot();
  const uint64_t rounds = after.count - before.count;
  const uint64_t forced_requests = after.sum - before.sum;
  EXPECT_GE(rounds, 1u);
  EXPECT_LT(rounds, kThreads);  // batching happened: fewer rounds than forces
  EXPECT_LE(forced_requests, static_cast<uint64_t>(kThreads));
}

TEST(GroupCommitTest, WindowFlushCoversAppendsThatJoinTheRound) {
  // An append made while the leader's accumulation window is open becomes
  // durable in that same round: the leader's target is snapshotted after
  // the window. The window hook injects the append deterministically —
  // sleeping into a wall-clock window flakes under parallel ctest on a
  // 1-core host, where the leader may finish its round before this thread
  // is ever scheduled again.
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/1'000'000, /*window_us=*/0);
  LatencyHistogram* batches = MetricsRegistry::Global().histogram(
      "pjvm_group_commit_batch_size");
  const HistogramData before = batches->Snapshot();
  uint64_t lsn2 = 0;
  wal.set_window_hook([&] {
    // Runs on the leader thread with its window open and the log unlocked.
    lsn2 = wal.Append(2, LogRecordType::kPrepare, kNoTable);
  });
  uint64_t lsn1 = wal.Append(1, LogRecordType::kPrepare, kNoTable);
  ASSERT_TRUE(wal.Force(lsn1).ok());
  wal.set_window_hook(nullptr);
  ASSERT_NE(lsn2, 0u);
  EXPECT_GE(wal.durable_lsn(), lsn2);
  ASSERT_TRUE(wal.Force(lsn2).ok());  // already covered: free
  const HistogramData after = batches->Snapshot();
  EXPECT_EQ(after.count - before.count, 1u);  // one round forced everything
}

TEST(GroupCommitTest, LsnsMonotonicAcrossClearAndDiscard) {
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/100'000, /*window_us=*/0);
  uint64_t a = wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  ASSERT_TRUE(wal.Force(a).ok());
  wal.Clear();  // checkpoint truncation: durable by definition
  EXPECT_EQ(wal.size(), 0u);
  EXPECT_EQ(wal.durable_lsn(), a);
  uint64_t b = wal.Append(2, LogRecordType::kInsert, kT, Row{Value{2}});
  EXPECT_GT(b, a);
  ASSERT_TRUE(wal.Force(b).ok());
  // An unforced tail append is lost by a crash; LSNs never rewind anyway.
  uint64_t c = wal.Append(3, LogRecordType::kInsert, kT, Row{Value{3}});
  wal.DiscardUnforced();
  EXPECT_EQ(wal.size(), 1u);  // b survives, c is gone
  EXPECT_EQ(wal.records().back().lsn, b);
  uint64_t d = wal.Append(4, LogRecordType::kInsert, kT, Row{Value{4}});
  EXPECT_GT(d, c);
}

TEST(GroupCommitTest, CrashReplayOfPartiallyForcedBatch) {
  // System-level: txn1 commits (its 2PC prepare forces its data records);
  // txn2's appends are still unforced when the crash hits. Recovery must
  // restore txn1's row and lose txn2's — the partially-forced batch replays
  // exactly up to the durable watermark.
  SystemConfig cfg = SmallConfig(2);
  cfg.wal_force_ns = 100'000;  // 0.1ms: forcing is real but fast
  cfg.group_commit_window_us = 0;
  ParallelSystem sys(cfg);
  ASSERT_TRUE(sys.CreateTable(HashTableDef("T", "a")).ok());
  uint64_t t1 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{1}, Value{10}}, t1).ok());
  ASSERT_TRUE(sys.Commit(t1).ok());
  uint64_t t2 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{2}, Value{20}}, t2).ok());
  // No commit: txn2's data records sit above every node's durable watermark.
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(Sorted(sys.ScanAll("T")),
            Sorted({{Value{1}, Value{10}}}));
  // The log keeps appending monotonically after the discard.
  uint64_t t3 = sys.Begin();
  ASSERT_TRUE(sys.Insert("T", {Value{3}, Value{30}}, t3).ok());
  ASSERT_TRUE(sys.Commit(t3).ok());
  EXPECT_EQ(Sorted(sys.ScanAll("T")),
            Sorted({{Value{1}, Value{10}}, {Value{3}, Value{30}}}));
}

TEST(GroupCommitTest, CheckpointForcesUnforcedTailBeforeTruncation) {
  // Regression: Clear() used to advance durable_lsn_ over records that were
  // never forced to the device. A checkpoint taken between a commit's append
  // and its force would then claim durability the device never provided, and
  // the next DiscardUnforced "crash" silently kept rows that should be lost.
  // Clear() must pay one real device write for an unforced tail.
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/1'000'000, /*window_us=*/0);
  Counter* forces =
      MetricsRegistry::Global().counter("pjvm_wal_checkpoint_forces");
  const uint64_t before = forces->value();
  wal.Append(1, LogRecordType::kInsert, kT, Row{Value{1}});
  uint64_t b = wal.Append(1, LogRecordType::kCommit, kNoTable);
  ASSERT_LT(wal.durable_lsn(), b);  // tail is unforced
  wal.Clear();
  // The checkpoint paid the device write instead of lying about durability.
  EXPECT_EQ(forces->value(), before + 1);
  EXPECT_EQ(wal.durable_lsn(), b);
  EXPECT_EQ(wal.size(), 0u);
  // Crash semantics stay honest after the checkpoint: a fresh unforced
  // append is above the watermark and a crash discard drops it.
  uint64_t c = wal.Append(2, LogRecordType::kInsert, kT, Row{Value{2}});
  EXPECT_GT(c, wal.durable_lsn());
  wal.DiscardUnforced();
  EXPECT_EQ(wal.size(), 0u);
  // An already-durable checkpoint costs nothing.
  uint64_t d = wal.Append(3, LogRecordType::kInsert, kT, Row{Value{3}});
  ASSERT_TRUE(wal.Force(d).ok());
  wal.Clear();
  EXPECT_EQ(forces->value(), before + 1);
}

TEST(GroupCommitTest, CheckpointRidesOutInFlightForceRound) {
  // A checkpoint that arrives while a leader's round is open must wait for
  // that round rather than start a second device write. The leader snapshots
  // its target after the accumulation window, so the round also covers an
  // append made mid-window — the checkpoint then truncates for free.
  Wal wal;
  wal.ConfigureForce(/*force_ns=*/1'000'000, /*window_us=*/0);
  Counter* forces =
      MetricsRegistry::Global().counter("pjvm_wal_checkpoint_forces");
  const uint64_t before = forces->value();
  uint64_t lsn1 = wal.Append(1, LogRecordType::kPrepare, kNoTable);
  uint64_t lsn2 = 0;
  std::thread checkpointer;
  // The window hook replaces the old sleep-into-the-window choreography
  // (flaky under parallel ctest on a 1-core host): it runs on the leader
  // thread while the round is provably open, appends lsn2 into the round,
  // and launches the checkpoint. Whether Clear() then blocks on the open
  // round or arrives just after it closed, the round's force covers lsn2
  // and the checkpoint never pays a device write of its own.
  wal.set_window_hook([&] {
    lsn2 = wal.Append(2, LogRecordType::kPrepare, kNoTable);
    checkpointer = std::thread([&] { wal.Clear(); });
  });
  ASSERT_TRUE(wal.Force(lsn1).ok());
  checkpointer.join();
  wal.set_window_hook(nullptr);
  ASSERT_NE(lsn2, 0u);
  EXPECT_EQ(forces->value(), before);  // no extra checkpoint force
  EXPECT_GE(wal.durable_lsn(), lsn2);
  EXPECT_EQ(wal.size(), 0u);
}

// ------------------------------------------------------------- TxnManager

TEST(TxnManagerTest, LifecycleStates) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  EXPECT_EQ(mgr.state(t), TxnState::kActive);
  EXPECT_FALSE(mgr.IsCommitted(t));
  ASSERT_TRUE(mgr.MarkPreparing(t).ok());
  ASSERT_TRUE(mgr.LogCommitDecision(t).ok());
  EXPECT_TRUE(mgr.IsCommitted(t));
  EXPECT_EQ(mgr.state(t), TxnState::kCommitted);
}

TEST(TxnManagerTest, AutocommitAlwaysCommitted) {
  TxnManager mgr;
  EXPECT_TRUE(mgr.IsCommitted(kAutoCommitTxnId));
}

TEST(TxnManagerTest, CannotAbortCommitted) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  ASSERT_TRUE(mgr.LogCommitDecision(t).ok());
  EXPECT_FALSE(mgr.MarkAborted(t).ok());
}

TEST(TxnManagerTest, CannotCommitAborted) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  ASSERT_TRUE(mgr.MarkAborted(t).ok());
  EXPECT_FALSE(mgr.LogCommitDecision(t).ok());
}

TxnWrite InsertWrite(int node, int64_t v) {
  TxnWrite w;
  w.node = node;
  w.table = kT;
  w.op.kind = MvccOp::Kind::kInsert;
  w.op.row = {Value{v}};
  return w;
}

TEST(TxnManagerTest, UndoIsReversedAndConsumed) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  mgr.RecordWrite(t, InsertWrite(0, 1));
  mgr.RecordWrite(t, InsertWrite(0, 2));
  // The write set keeps execution order; abort undoes it back to front.
  TxnWriteSet ws = mgr.TakeWriteSet(t);
  ASSERT_EQ(ws.writes.size(), 2u);
  EXPECT_EQ(ws.writes.rbegin()[0].op.row[0], Value{2});
  EXPECT_EQ(ws.writes.rbegin()[1].op.row[0], Value{1});
  EXPECT_TRUE(mgr.TakeWriteSet(t).writes.empty());
}

TEST(TxnManagerTest, CrashAbortsInFlight) {
  TxnManager mgr;
  uint64_t committed = mgr.Begin();
  uint64_t in_flight = mgr.Begin();
  ASSERT_TRUE(mgr.LogCommitDecision(committed).ok());
  mgr.CrashAndRecover();
  EXPECT_TRUE(mgr.IsCommitted(committed));
  EXPECT_EQ(mgr.state(in_flight), TxnState::kAborted);
}

TEST(TxnManagerTest, ForgetDropsWorkingStateButKeepsDecision) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  mgr.RecordWrite(t, InsertWrite(0, 1));
  mgr.AddParticipant(t, 2);
  ASSERT_TRUE(mgr.LogCommitDecision(t).ok());
  EXPECT_EQ(mgr.TrackedCount(), 1u);
  mgr.Forget(t);
  EXPECT_EQ(mgr.TrackedCount(), 0u);
  TxnWriteSet ws = mgr.TakeWriteSet(t);
  EXPECT_TRUE(ws.participants.empty());
  EXPECT_TRUE(ws.writes.empty());
  // The durable decision outlives the working state.
  EXPECT_TRUE(mgr.IsCommitted(t));
  EXPECT_EQ(mgr.state(t), TxnState::kCommitted);
}

TEST(TxnManagerTest, ParticipantsReturnsCopyWithoutInserting) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  // Asking about a transaction with no participants must not create an
  // entry (the old by-reference accessor default-inserted one).
  EXPECT_TRUE(mgr.TakeWriteSet(t).participants.empty());
  EXPECT_TRUE(mgr.TakeWriteSet(9999).participants.empty());
  mgr.AddParticipant(9999, 2);
  EXPECT_EQ(mgr.TrackedCount(), 1u);  // only t: 9999 never became tracked
  mgr.AddParticipant(t, 1);
  mgr.AddParticipant(t, 3);
  EXPECT_EQ(mgr.TakeWriteSet(t).participants, (std::set<int>{1, 3}));
}

TEST(TxnManagerTest, PruneCommittedBelowDropsOnlyOldDecisions) {
  TxnManager mgr;
  uint64_t t1 = mgr.Begin();
  uint64_t t2 = mgr.Begin();
  ASSERT_TRUE(mgr.LogCommitDecision(t1).ok());
  ASSERT_TRUE(mgr.LogCommitDecision(t2).ok());
  EXPECT_EQ(mgr.PruneCommittedBelow(t2), 1u);
  EXPECT_FALSE(mgr.IsCommitted(t1));
  EXPECT_TRUE(mgr.IsCommitted(t2));
  EXPECT_EQ(mgr.PruneCommittedBelow(mgr.next_txn_id()), 1u);
  EXPECT_FALSE(mgr.IsCommitted(t2));
  EXPECT_EQ(mgr.PruneCommittedBelow(mgr.next_txn_id()), 0u);
}

TEST(TxnManagerTest, CrashClearsParticipantsAndUndo) {
  TxnManager mgr;
  uint64_t t = mgr.Begin();
  mgr.AddParticipant(t, 0);
  mgr.RecordWrite(t, InsertWrite(0, 1));
  mgr.CrashAndRecover();
  EXPECT_EQ(mgr.TrackedCount(), 0u);
  TxnWriteSet ws = mgr.TakeWriteSet(t);
  EXPECT_TRUE(ws.participants.empty());
  EXPECT_TRUE(ws.writes.empty());
}

// ------------------------------------------------- System-level txn + 2PC

TEST(SystemTxnTest, CommitMakesChangesDurable) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
  }
  ASSERT_TRUE(sys.Commit(t).ok());
  EXPECT_EQ(sys.RowCount("A"), 8u);
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 8u);
}

TEST(SystemTxnTest, MultiNodePrepareForcesOverlap) {
  // When forces wait on the device, phase 1 forces every participant's
  // prepare on its own thread, the caller taking one of them. Each node's
  // window hook runs on the thread leading that node's force round, so the
  // set of hook threads is the set of forcing threads — no timing involved.
  SystemConfig cfg = SmallConfig(4);
  cfg.wal_force_ns = 100'000;  // 0.1ms: forcing is real but fast
  cfg.group_commit_window_us = 0;
  ParallelSystem sys(cfg);
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  std::set<int> homes;
  for (int64_t k = 0; homes.size() < 4; ++k) {
    ASSERT_LT(k, 1000);
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
    homes.insert(sys.HomeNodeForKey(Value{k}));
  }
  std::mutex mu;
  std::vector<std::thread::id> forcers;
  for (int i = 0; i < 4; ++i) {
    sys.node(i)->wal().set_window_hook([&] {
      std::lock_guard<std::mutex> lock(mu);
      forcers.push_back(std::this_thread::get_id());
    });
  }
  ASSERT_TRUE(sys.Commit(t).ok());
  for (int i = 0; i < 4; ++i) sys.node(i)->wal().set_window_hook(nullptr);
  ASSERT_EQ(forcers.size(), 4u);
  std::set<std::thread::id> distinct(forcers.begin(), forcers.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u);
}

TEST(SystemTxnTest, AbortRollsBackInserts) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  ASSERT_TRUE(sys.Insert("A", {Value{100}, Value{1}}).ok());
  uint64_t t = sys.Begin();
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
  }
  EXPECT_EQ(sys.RowCount("A"), 6u);
  ASSERT_TRUE(sys.Abort(t).ok());
  EXPECT_EQ(sys.RowCount("A"), 1u);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, AbortRollsBackDeletes) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  Row row = {Value{7}, Value{77}};
  ASSERT_TRUE(sys.Insert("A", row).ok());
  uint64_t t = sys.Begin();
  ASSERT_TRUE(sys.DeleteExact("A", row, t).ok());
  EXPECT_EQ(sys.RowCount("A"), 0u);
  ASSERT_TRUE(sys.Abort(t).ok());
  ASSERT_EQ(sys.RowCount("A"), 1u);
  EXPECT_EQ(Sorted(sys.ScanAll("A"))[0], row);
}

TEST(SystemTxnTest, AbortRestoresDeletedRowAtOriginalLrid) {
  // Regression: global-index entries reference (node, lrid), so a row
  // restored by abort must come back at the exact slot it was deleted from.
  // Before deferred slot reclamation, the delete freed the slot immediately;
  // an insert racing the doomed transaction could recycle it, and the undo
  // re-insert landed at a new lrid — leaving committed GI entries dangling.
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  Row victim = {Value{7}, Value{77}};
  ASSERT_TRUE(sys.Insert("A", victim).ok());
  const TableId a = sys.catalog().IdOf("A");
  int home = -1;
  LocalRowId original_lrid = 0;
  for (int i = 0; i < SmallConfig().num_nodes; ++i) {
    auto found = sys.node(i)->fragment(a)->FindExact(victim);
    if (found.ok()) {
      home = i;
      original_lrid = *found;
      break;
    }
  }
  ASSERT_GE(home, 0);

  uint64_t t = sys.Begin();
  ASSERT_TRUE(sys.DeleteExact("A", victim, t).ok());
  // An unrelated insert lands on every node (one per node id keyspace walk)
  // while the delete is still abortable: none may steal the reserved slot.
  for (int64_t k = 1000; k < 1064; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}).ok());
  }
  EXPECT_EQ(sys.node(home)->fragment(a)->Get(original_lrid), nullptr)
      << "reserved slot must stay empty until the transaction resolves";
  ASSERT_TRUE(sys.Abort(t).ok());

  auto restored = sys.node(home)->fragment(a)->FindExact(victim);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, original_lrid);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, CommitRecyclesDeferredDeleteSlots) {
  // The commit epilogue releases slots reserved by transactional deletes;
  // later inserts on that node may then reuse them (bounded heap growth).
  SystemConfig cfg = SmallConfig(1);
  ParallelSystem sys(cfg);
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  Row row = {Value{1}, Value{11}};
  ASSERT_TRUE(sys.Insert("A", row).ok());
  const TableId a = sys.catalog().IdOf("A");
  auto found = sys.node(0)->fragment(a)->FindExact(row);
  ASSERT_TRUE(found.ok());
  LocalRowId freed_lrid = *found;

  uint64_t t = sys.Begin();
  ASSERT_TRUE(sys.DeleteExact("A", row, t).ok());
  ASSERT_TRUE(sys.Commit(t).ok());

  // Single node: the next insert must recycle the released slot.
  ASSERT_TRUE(sys.Insert("A", {Value{2}, Value{22}}).ok());
  auto reused = sys.node(0)->fragment(a)->FindExact({Value{2}, Value{22}});
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, freed_lrid);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, CommitReleasesSlotsOnlyOnDeleteNodes) {
  // Deletes on nodes 0 and 1, an insert on node 2: the commit epilogue frees
  // the reserved slot on each delete node and leaves node 2's heap alone.
  ParallelSystem sys(SmallConfig(3));
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  std::vector<int64_t> key_on(3, -1);
  for (int64_t k = 0; key_on[0] < 0 || key_on[1] < 0 || key_on[2] < 0; ++k) {
    int node = sys.HomeNodeForKey(Value{k});
    if (key_on[node] < 0) key_on[node] = k;
  }
  auto lrid_of = [&](int node, const Row& row) {
    auto found =
        sys.node(node)->fragment(sys.catalog().IdOf("A"))->FindExact(row);
    EXPECT_TRUE(found.ok()) << RowToString(row);
    return found.ok() ? *found : LocalRowId{0};
  };
  std::vector<Row> victims;
  std::vector<LocalRowId> freed;
  for (int node = 0; node < 2; ++node) {
    ASSERT_TRUE(sys.Insert("A", {Value{key_on[node]}, Value{0}}).ok());
    victims.push_back({Value{key_on[node]}, Value{1}});
    ASSERT_TRUE(sys.Insert("A", victims.back()).ok());
    freed.push_back(lrid_of(node, victims.back()));
  }
  ASSERT_TRUE(sys.Insert("A", {Value{key_on[2]}, Value{0}}).ok());

  uint64_t t = sys.Begin();
  for (const Row& row : victims) ASSERT_TRUE(sys.DeleteExact("A", row, t).ok());
  Row added = {Value{key_on[2]}, Value{1}};
  ASSERT_TRUE(sys.Insert("A", added, t).ok());
  ASSERT_TRUE(sys.Commit(t).ok());

  for (int node = 0; node < 2; ++node) {
    Row next = {Value{key_on[node]}, Value{2}};
    ASSERT_TRUE(sys.Insert("A", next).ok());
    EXPECT_EQ(lrid_of(node, next), freed[node]) << "node " << node;
  }
  // Node 2 had no slot to free: its next insert takes a fresh lrid.
  LocalRowId added_lrid = lrid_of(2, added);
  Row next = {Value{key_on[2]}, Value{2}};
  ASSERT_TRUE(sys.Insert("A", next).ok());
  EXPECT_EQ(lrid_of(2, next), added_lrid + 1);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, UncommittedTxnLostOnCrash) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  ASSERT_TRUE(sys.Insert("A", {Value{100}, Value{1}}).ok());  // autocommit
  uint64_t t = sys.Begin();
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
  }
  sys.Crash();  // Crash without commit.
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 1u);
}

TEST(SystemTxnTest, CrashBeforePrepareAborts) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", {Value{1}, Value{1}}, t).ok());
  sys.txns().InjectFailure(FailurePoint::kBeforePrepare);
  EXPECT_TRUE(sys.Commit(t).IsAborted());
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 0u);
}

TEST(SystemTxnTest, CrashAfterPrepareAborts) {
  // Presumed abort: prepared but undecided transactions roll back.
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
  }
  sys.txns().InjectFailure(FailurePoint::kAfterPrepare);
  EXPECT_TRUE(sys.Commit(t).IsAborted());
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 0u);
}

TEST(SystemTxnTest, CrashAfterDecisionCommits) {
  // Once the coordinator durably decided commit, recovery must apply the
  // transaction even though participants never heard the outcome.
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
  }
  sys.txns().InjectFailure(FailurePoint::kAfterDecision);
  EXPECT_TRUE(sys.Commit(t).IsAborted());  // The call reports the crash...
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 6u);  // ...but the transaction committed.
}

TEST(SystemTxnTest, RecoveryPreservesExactContents) {
  ParallelSystem sys(SmallConfig());
  TableDef def = HashTableDef("A", "a");
  def.indexes.push_back({"c", false});
  ASSERT_TRUE(sys.CreateTable(def).ok());
  // A mix of committed work, aborted work, and deletes.
  uint64_t t1 = sys.Begin();
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k % 3}}, t1).ok());
  }
  ASSERT_TRUE(sys.Commit(t1).ok());
  uint64_t t2 = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", {Value{999}, Value{9}}, t2).ok());
  ASSERT_TRUE(sys.DeleteExact("A", {Value{1}, Value{1}}, t2).ok());
  ASSERT_TRUE(sys.Abort(t2).ok());
  uint64_t t3 = sys.Begin();
  ASSERT_TRUE(sys.DeleteExact("A", {Value{2}, Value{2}}, t3).ok());
  ASSERT_TRUE(sys.Commit(t3).ok());

  std::vector<Row> before = Sorted(sys.ScanAll("A"));
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  std::vector<Row> after = Sorted(sys.ScanAll("A"));
  EXPECT_EQ(before, after);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, FinishedTransactionsAreForgotten) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  std::vector<uint64_t> committed;
  for (int64_t k = 0; k < 6; ++k) {
    uint64_t t = sys.Begin();
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}, t).ok());
    if (k % 2 == 0) {
      ASSERT_TRUE(sys.Commit(t).ok());
      committed.push_back(t);
    } else {
      ASSERT_TRUE(sys.Abort(t).ok());
    }
    // Working state (lifecycle entry, undo, participants) is dropped as each
    // transaction finishes: the coordinator's memory stays bounded.
    EXPECT_EQ(sys.txns().TrackedCount(), 0u);
  }
  // The committed ids survive (WAL replay may still ask about them)...
  ASSERT_EQ(committed.size(), 3u);
  for (uint64_t t : committed) EXPECT_TRUE(sys.txns().IsCommitted(t));
  // ...until a checkpoint truncates every node's log.
  ASSERT_TRUE(sys.Checkpoint().ok());
  for (uint64_t t : committed) EXPECT_FALSE(sys.txns().IsCommitted(t));
  // Recovery from the checkpoint still yields the committed contents.
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 3u);
}

TEST(SystemTxnTest, CommitsAfterCheckpointReplayWithMonotonicLsns) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t1 = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", {Value{1}, Value{1}}, t1).ok());
  ASSERT_TRUE(sys.Commit(t1).ok());
  std::vector<uint64_t> lsn_at_checkpoint(sys.num_nodes());
  ASSERT_TRUE(sys.Checkpoint().ok());
  for (int i = 0; i < sys.num_nodes(); ++i) {
    EXPECT_EQ(sys.node(i)->wal().size(), 0u);
    lsn_at_checkpoint[i] = sys.node(i)->wal().next_lsn();
  }
  // Records written after the truncation continue the LSN sequence.
  uint64_t t2 = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", {Value{2}, Value{2}}, t2).ok());
  ASSERT_TRUE(sys.Commit(t2).ok());
  for (int i = 0; i < sys.num_nodes(); ++i) {
    EXPECT_GE(sys.node(i)->wal().next_lsn(), lsn_at_checkpoint[i]);
    for (const LogRecord& rec : sys.node(i)->wal().records()) {
      EXPECT_GE(rec.lsn, lsn_at_checkpoint[i]);
    }
  }
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 2u);
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTxnTest, FailedNodeInsertLeavesNoLogRecord) {
  // Regression: Node::Insert logged the row (and joined the transaction)
  // before the fragment validated it, so a transaction that committed after
  // one rejected insert left a WAL record replay could not apply.
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  uint64_t t = sys.Begin();
  EXPECT_TRUE(sys.node(0)
                  ->Insert(t, sys.catalog().IdOf("A"), {Value{"x"}, Value{1}})
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(sys.Insert("A", {Value{1}, Value{1}}, t).ok());
  ASSERT_TRUE(sys.Commit(t).ok());
  sys.Crash();
  ASSERT_TRUE(sys.Recover().ok());
  EXPECT_EQ(sys.RowCount("A"), 1u);
}

TEST(SystemTxnTest, WriteSetKeepsRowsOnlyWhereRead) {
  // Undo re-inserts a deleted row, so a delete's write keeps the victim. An
  // insert's undo needs only its lrid: its row is kept only when snapshots
  // are on, for PublishVersions.
  for (bool mvcc : {false, true}) {
    SCOPED_TRACE(mvcc ? "mvcc on" : "mvcc off");
    SystemConfig cfg = SmallConfig();
    cfg.mvcc_reads = mvcc;
    ParallelSystem sys(cfg);
    ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
    ASSERT_TRUE(sys.Insert("A", {Value{1}, Value{10}}).ok());
    uint64_t t = sys.Begin();
    ASSERT_TRUE(sys.Insert("A", {Value{2}, Value{20}}, t).ok());
    ASSERT_TRUE(sys.DeleteExact("A", {Value{1}, Value{10}}, t).ok());
    TxnWriteSet ws = sys.txns().TakeWriteSet(t);
    ASSERT_EQ(ws.writes.size(), 2u);
    EXPECT_EQ(ws.writes[0].op.kind, MvccOp::Kind::kInsert);
    EXPECT_EQ(ws.writes[0].op.row,
              mvcc ? Row({Value{2}, Value{20}}) : Row{});
    EXPECT_EQ(ws.writes[1].op.kind, MvccOp::Kind::kDelete);
    EXPECT_EQ(ws.writes[1].op.row, Row({Value{1}, Value{10}}));
    // Hand the writes back; the abort's undo still restores the old state.
    for (TxnWrite& write : ws.writes) {
      sys.txns().RecordWrite(t, std::move(write));
    }
    ASSERT_TRUE(sys.Abort(t).ok());
    EXPECT_EQ(Sorted(sys.ScanAll("A")), Sorted({{Value{1}, Value{10}}}));
    EXPECT_TRUE(sys.CheckInvariants().ok());
  }
}

TEST(SystemTxnTest, MultiTableTransactionIsAtomic) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("B", "a")).ok());
  uint64_t t = sys.Begin();
  ASSERT_TRUE(sys.Insert("A", {Value{1}, Value{1}}, t).ok());
  ASSERT_TRUE(sys.Insert("B", {Value{2}, Value{2}}, t).ok());
  sys.txns().InjectFailure(FailurePoint::kAfterPrepare);
  EXPECT_FALSE(sys.Commit(t).ok());
  ASSERT_TRUE(sys.Recover().ok());
  // Neither table kept its row: no partial commit.
  EXPECT_EQ(sys.RowCount("A"), 0u);
  EXPECT_EQ(sys.RowCount("B"), 0u);
}

// ------------------------------------------------- Randomized transactions
//
// Seeded random transactions checked against a model. Each runs 1-8 ops
// over a hash-partitioned table indexed on `c` ("H") and a round-robin table
// ("R"): insert a fresh row, delete a committed row, delete a row it
// inserted itself, or re-insert a row it deleted. It then commits, aborts,
// or commits into an injected crash followed by recovery. After each one the
// rows equal the model, and every committed row an aborted transaction
// deleted is back at its original global row id (the slot its delete
// reserved).

class RandomTxnClient {
 public:
  // Rows get `a` keys from `key_base` up and `c` values in [c_base, c_base+5),
  // so clients with disjoint bases never touch each other's rows or keys.
  RandomTxnClient(ParallelSystem* sys, uint64_t seed, int64_t key_base,
                  int64_t c_base)
      : sys_(sys), rng_(seed), next_key_(key_base), c_base_(c_base) {}

  static void CreateTables(ParallelSystem* sys) {
    TableDef h = HashTableDef("H", "a");
    h.indexes.push_back({"c", false});
    ASSERT_TRUE(sys->CreateTable(h).ok());
    TableDef r = HashTableDef("R", "a");
    r.partition = PartitionSpec::RoundRobin();
    ASSERT_TRUE(sys->CreateTable(r).ok());
  }

  // Runs one random transaction and updates the model; a crash end is only
  // drawn when `allow_crash`. Failed expectations are reported to gtest.
  void RunOne(bool allow_crash) {
    RunningTxn txn{sys_->Begin(), model_, {}, {}, {}};
    const int ops = 1 + Draw(8);
    for (int i = 0; i < ops; ++i) {
      const int kind = Draw(4);
      TableRow target;
      if (kind == 1 && PickCommitted(txn, &target)) {
        Result<GlobalRowId> gid =
            sys_->LocateExact(target.first, target.second);
        ASSERT_TRUE(gid.ok()) << gid.status().ToString();
        txn.committed_gids.emplace(target, *gid);
        Delete(&txn, target);
      } else if (kind == 2 && Pick(txn.inserted, &target)) {
        Delete(&txn, target);
      } else if (kind == 3 && Pick(txn.deleted, &target)) {
        Insert(&txn, target);
      } else {
        target.first = Draw(2) == 0 ? "H" : "R";
        target.second = {Value{next_key_++}, Value{c_base_ + Draw(5)}};
        owned_.insert(target.second);
        Insert(&txn, target);
      }
    }
    const int end = Draw(allow_crash ? 3 : 2);
    ++ends[end];
    if (end == 0) {
      ASSERT_TRUE(sys_->Commit(txn.id).ok());
      model_ = std::move(txn.working);
    } else if (end == 1) {
      ASSERT_TRUE(sys_->Abort(txn.id).ok());
      for (const auto& [target, gid] : txn.committed_gids) {
        Result<GlobalRowId> now =
            sys_->LocateExact(target.first, target.second);
        ASSERT_TRUE(now.ok()) << RowToString(target.second);
        EXPECT_EQ(*now, gid) << "aborted delete moved "
                             << RowToString(target.second);
        ++restored_rows;
      }
    } else {
      const FailurePoint point = static_cast<FailurePoint>(1 + Draw(3));
      sys_->txns().InjectFailure(point);
      EXPECT_TRUE(sys_->Commit(txn.id).IsAborted());
      ASSERT_TRUE(sys_->Recover().ok());
      if (point == FailurePoint::kAfterDecision) {
        model_ = std::move(txn.working);
      }
    }
  }

  // How many transactions committed, aborted and crashed.
  int ends[3] = {0, 0, 0};
  // Committed rows whose aborted delete was checked to restore the row id.
  int restored_rows = 0;

  // The rows of `table` this client inserted that are there now, sorted.
  std::vector<Row> Owned(const std::string& table) const {
    std::vector<Row> rows;
    for (Row& row : sys_->ScanAll(table)) {
      if (owned_.count(row) > 0) rows.push_back(std::move(row));
    }
    return Sorted(std::move(rows));
  }

  // The model's committed rows of `table`, sorted.
  std::vector<Row> Expected(const std::string& table) const {
    std::vector<Row> rows;
    for (const TableRow& row : model_) {
      if (row.first == table) rows.push_back(row.second);
    }
    return Sorted(std::move(rows));
  }

 private:
  using TableRow = std::pair<std::string, Row>;

  struct RunningTxn {
    uint64_t id;
    std::set<TableRow> working;         // the rows as this txn sees them
    std::set<TableRow> inserted;        // present rows it inserted
    std::set<TableRow> deleted;         // absent rows it deleted
    std::map<TableRow, GlobalRowId> committed_gids;  // before its delete
  };

  int Draw(int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng_);
  }

  bool Pick(const std::set<TableRow>& from, TableRow* out) {
    if (from.empty()) return false;
    *out = *std::next(from.begin(), Draw(static_cast<int>(from.size())));
    return true;
  }

  // A committed row the transaction still sees.
  bool PickCommitted(const RunningTxn& txn, TableRow* out) {
    std::set<TableRow> candidates;
    for (const TableRow& row : model_) {
      if (txn.working.count(row) > 0) candidates.insert(row);
    }
    return Pick(candidates, out);
  }

  void Insert(RunningTxn* txn, const TableRow& target) {
    ASSERT_TRUE(sys_->Insert(target.first, target.second, txn->id).ok());
    txn->working.insert(target);
    txn->deleted.erase(target);
    txn->inserted.insert(target);
  }

  void Delete(RunningTxn* txn, const TableRow& target) {
    ASSERT_TRUE(sys_->DeleteExact(target.first, target.second, txn->id).ok());
    txn->working.erase(target);
    txn->inserted.erase(target);
    txn->deleted.insert(target);
  }

  ParallelSystem* sys_;
  std::mt19937_64 rng_;
  int64_t next_key_;
  int64_t c_base_;
  std::set<TableRow> model_;  // committed rows
  std::set<Row> owned_;       // every row this client ever inserted
};

void RunRandomTransactions(bool mvcc_reads) {
  SystemConfig cfg = SmallConfig();
  cfg.mvcc_reads = mvcc_reads;
  ParallelSystem sys(cfg);
  RandomTxnClient::CreateTables(&sys);
  RandomTxnClient client(&sys, /*seed=*/20021, /*key_base=*/0, /*c_base=*/0);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE("transaction " + std::to_string(i));
    client.RunOne(/*allow_crash=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(client.Owned("H"), client.Expected("H"));
    ASSERT_EQ(client.Owned("R"), client.Expected("R"));
    ASSERT_TRUE(sys.CheckInvariants().ok());
    ASSERT_EQ(sys.txns().TrackedCount(), 0u);
  }
  // The seed exercises every end and the lrid-exact undo.
  EXPECT_GT(client.ends[0], 50);
  EXPECT_GT(client.ends[1], 50);
  EXPECT_GT(client.ends[2], 50);
  EXPECT_GT(client.restored_rows, 50);
}

TEST(RandomTxnTest, MatchesModelLiveReads) { RunRandomTransactions(false); }

TEST(RandomTxnTest, MatchesModelSnapshotReads) { RunRandomTransactions(true); }

TEST(RandomTxnTest, ConcurrentClientsOnDisjointKeysWithLocking) {
  // Four clients, each on its own keys, so no lock ever conflicts; they
  // share the nodes, their latches, the round-robin counter and the
  // coordinator. No crashes: a crash is system-wide.
  SystemConfig cfg = SmallConfig();
  cfg.enable_locking = true;
  ParallelSystem sys(cfg);
  RandomTxnClient::CreateTables(&sys);
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<RandomTxnClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<RandomTxnClient>(
        &sys, /*seed=*/7 + i, /*key_base=*/int64_t{1000000} * i,
        /*c_base=*/100 * i));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      for (int n = 0; n < 100; ++n) {
        clients[i]->RunOne(/*allow_crash=*/false);
        if (::testing::Test::HasFailure()) return;
        EXPECT_EQ(clients[i]->Owned("H"), clients[i]->Expected("H"));
        EXPECT_EQ(clients[i]->Owned("R"), clients[i]->Expected("R"));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(sys.CheckInvariants().ok());
  EXPECT_EQ(sys.txns().TrackedCount(), 0u);
}

}  // namespace
}  // namespace pjvm
