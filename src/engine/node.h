#ifndef PJVM_ENGINE_NODE_H_
#define PJVM_ENGINE_NODE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/row.h"
#include "common/status.h"
#include "common/worker_context.h"
#include "engine/catalog.h"
#include "storage/stats.h"
#include "storage/table_fragment.h"
#include "txn/lock_manager.h"
#include "txn/snapshot_manager.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace pjvm {

/// \brief Access mode for a node's physical latch.
enum class LatchMode { kShared = 0, kExclusive };

/// \brief Per-node reader/writer latch with writer re-entrancy.
///
/// Read-only phases (index probes, estimation scans, view lookups) take
/// shared access and overlap on the same node; inserts/deletes/undo take
/// exclusive. Semantics:
///
///  - **Exclusive is re-entrant** on the owning thread (the old recursive
///    latch behavior), and subsumes shared: a writer's nested shared
///    acquisitions just deepen its exclusive hold.
///  - **Shared is re-entrant** on the same thread: a nested shared acquire
///    bypasses the waiting-writer gate (the outer hold already excludes
///    writers), so writer priority can never self-deadlock a reader.
///  - **Shared→exclusive upgrade is forbidden** (it deadlocks against a
///    symmetric upgrader); no engine call path performs one, and the latch
///    aborts the process if one appears.
///  - Writers get priority: new top-level readers queue behind a waiting
///    writer, bounding writer wait by the current readers' critical
///    sections.
class NodeLatch {
 public:
  NodeLatch() = default;
  NodeLatch(const NodeLatch&) = delete;
  NodeLatch& operator=(const NodeLatch&) = delete;

  void AcquireShared() const;
  void ReleaseShared() const;
  void AcquireExclusive() const;
  void ReleaseExclusive() const;

 private:
  /// This thread's shared hold depth on this latch (created at 0).
  static int& SharedDepth(const NodeLatch* latch);
  /// Read-only variant: 0 when this thread holds no shared latch here.
  static int SharedDepthOf(const NodeLatch* latch);
  static void DropSharedDepth(const NodeLatch* latch);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int readers_ = 0;
  mutable int waiting_writers_ = 0;
  /// Owning writer thread, or default id. Written under mu_ (release),
  /// read lock-free (acquire) for the re-entrancy fast path.
  mutable std::atomic<std::thread::id> writer_{};
  mutable int writer_depth_ = 0;
};

/// \brief One data server node: its table fragments, its write-ahead log,
/// and the cost-charged local operations the rest of the engine composes.
///
/// Every mutation is WAL-logged (by row content) and, for explicit
/// transactions, recorded once in the transaction's write set in the
/// TxnManager (undo, MVCC publish, 2PC participants and slot release).
/// Every operation charges the paper's primitive costs (SEARCH, FETCH,
/// INSERT) to this node in the shared CostTracker.
///
/// **Physical latch.** The node's worker thread is the common writer of its
/// fragments, but concurrent client transactions also read and write them
/// directly (LocateExact, undo application, the heavy/light statistics
/// builds). All fragment and index access therefore goes through the node's
/// reader/writer latch — the Node methods take it themselves (shared for
/// probes, exclusive for mutations); external callers touching
/// `fragment(...)` directly must hold a NodeLatchGuard in the matching
/// mode. Latches order *after* transaction locks: a blocking lock acquire
/// must never happen while a latch is held in either mode (the lock
/// manager degrades to non-blocking in that case, see
/// common/worker_context.h), so latch hold times are bounded by local work
/// and cannot deadlock.
class Node {
 public:
  Node(int id, CostTracker* tracker, TxnManager* txns,
       LockManager* locks = nullptr, SnapshotManager* snaps = nullptr)
      : id_(id), tracker_(tracker), txns_(txns), locks_(locks),
        snaps_(snaps) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }

  /// The node's physical latch. Re-entrant per mode so a latched caller can
  /// invoke Node methods (which latch again) without self-deadlock. Prefer
  /// NodeLatchGuard over acquiring it directly — the guard also maintains
  /// the thread's latch-depth context for the lock manager.
  NodeLatch& latch() const { return latch_; }

  /// Creates this node's fragment of `def` (slot `def.id`) with its local
  /// indexes. Content deletes find their row through the fragment's most
  /// selective index, or a content hash on a fragment with no index.
  Status CreateFragment(const TableDef& def, int rows_per_page);
  /// Clears the table's slot: the fragment and its checkpoint image.
  Status DropFragment(TableId table);

  /// The fragment, or nullptr if this node has none for `table`.
  TableFragment* fragment(TableId table) {
    return table < slots_.size() ? slots_[table].fragment.get() : nullptr;
  }
  const TableFragment* fragment(TableId table) const {
    return table < slots_.size() ? slots_[table].fragment.get() : nullptr;
  }

  /// Inserts a row: charges INSERT, logs, records the write for explicit
  /// txns.
  Result<LocalRowId> Insert(uint64_t txn_id, TableId table, Row row);

  /// Inserts `rows` in order, the caller having validated them against the
  /// table's schema (ParallelSystem::InsertMany does): the same INSERT and
  /// descent charges, WAL records, write-set entries and lrids as one Insert
  /// per row. The run takes every row lock first, then one latch, and an
  /// autocommit run publishes its MVCC versions as one delta. Appends each
  /// row's lrid to `lrids` when non-null.
  Status InsertRun(uint64_t txn_id, TableId table,
                   std::vector<Row> rows, std::vector<LocalRowId>* lrids);

  /// Deletes one row equal to `row`: charges a SEARCH (to locate it) plus
  /// INSERT-weighted write I/O, logs, records the write for explicit txns.
  Status DeleteExact(uint64_t txn_id, TableId table, const Row& row);

  /// Index probe on `column` = `key`. Charges one SEARCH; a non-clustered
  /// index additionally charges one FETCH per matching row, while a
  /// clustered index charges none (the paper's assumption 5/7: all matches
  /// sit on the reached leaf page). Under locking, an explicit transaction
  /// takes an S lock on the probed index key.
  Result<ProbeResult> IndexProbe(TableId table, int column, const Value& key,
                                 uint64_t txn_id = kAutoCommitTxnId);

  /// S-locks this node's whole fragment of `table` for a scanning read
  /// (sort-merge joins). No-op without locking or for autocommit.
  Status AcquireTableShared(uint64_t txn_id, TableId table);

  // --- Read primitives (client reads, planning estimates) ---
  //
  // Each reads the image `epoch` chose: the fragment's MVCC snapshot at the
  // pinned epoch (wait-free: no locks, no latch, `txn_id` ignored), or the
  // live fragment under the shared latch, after the S lock an explicit
  // transaction takes first. Both images charge the same primitives.

  /// The snapshot manager when mvcc_reads is on, else nullptr — what a
  /// ReadEpoch built for this node's reads is constructed from.
  SnapshotManager* snapshots() const { return snaps_; }

  /// Appends rows with `column` = `key`. An indexed column costs one SEARCH
  /// and one descent, plus one FETCH per row unless the index is clustered;
  /// live, an explicit transaction S-locks the probed key (see IndexProbe).
  /// Otherwise a full scan costs one FETCH per page; live, an explicit
  /// transaction S-locks the fragment.
  Status SelectEq(const ReadEpoch& epoch, uint64_t txn_id, TableId table,
                  int column, const Value& key, std::vector<Row>* out);
  /// Appends rows with lo <= `column` <= hi: an index range scan (one
  /// SEARCH to seek, one FETCH per row delivered) or a full scan (one FETCH
  /// per page). Live, an explicit transaction S-locks the whole fragment —
  /// coarse, but phantom-safe.
  Status SelectRange(const ReadEpoch& epoch, uint64_t txn_id,
                     TableId table, int column, const Value& lo,
                     const Value& hi, std::vector<Row>* out);
  /// Visits every row of `table` here in place, in heap order (uncharged;
  /// none without a fragment). Live, `fn` runs under the shared latch and
  /// must not write to this node.
  void ForEachRow(const ReadEpoch& epoch, TableId table,
                  const std::function<void(const Row&)>& fn) const;
  size_t RowCount(const ReadEpoch& epoch, TableId table) const;
  /// Rows whose `column` equals `key`, counted from the index without
  /// copying a row; nullopt when `column` has no index here. Uncharged.
  std::optional<size_t> CountMatches(const ReadEpoch& epoch, TableId table,
                                     int column, const Value& key) const;
  /// Exact stats of `column` in this node's fragment. Uncharged.
  ColumnStats ColumnStatsOf(const ReadEpoch& epoch, TableId table,
                            int column) const;

  /// Undoes one write of an aborting transaction (the abort walks the write
  /// set backwards): mutates the fragment under the latch without logging or
  /// cost charging (the forward operation already paid; recovery replays
  /// only committed work). Compensation is lrid-exact: an undone insert
  /// frees the slot it occupied, and an undone delete restores the row into
  /// its reserved slot (see DeleteExact) so committed global-index entries
  /// keep resolving.
  Status ApplyUndo(const TxnWrite& write);

  /// Commit epilogue: under one latch, recycles the heap slots that
  /// `deletes` (this node's delete writes, in execution order) kept reserved
  /// so an abort could restore each row at its original lrid. Call after the
  /// commit decision is durable.
  void ReleaseReservedSlots(const std::vector<const TxnWrite*>& deletes);

  /// In-place escrow rewrite of one aggregate group row (view/escrow.h):
  /// replaces the row at `lrid` with `row` under the caller's exclusive
  /// latch, charging one write I/O. No WAL record and no write-set entry —
  /// the escrow journal owns logging, undo and version ops (logical
  /// kEscrowDelta records at prepare, journal rollback on abort,
  /// committed-image version ops at publish). The caller must hold this
  /// node's exclusive latch and the group's V (or X) lock.
  Status EscrowReplace(TableId table, LocalRowId lrid, Row row);

  /// Applies a WAL record during recovery: no logging, no cost charging.
  Status ApplyLogRecord(const LogRecord& record);

  /// Drops all fragment contents (simulated crash losing volatile state).
  /// Fragment definitions (schemas/indexes) are re-created by the caller.
  void WipeFragments();

  /// Re-creates an empty fragment for every live catalog table (recovery).
  Status RecreateFragments(const Catalog& catalog, int rows_per_page);

  /// Takes a durable snapshot of every fragment's rows and truncates the
  /// WAL: recovery then restores the snapshot and replays only the log
  /// suffix. The caller guarantees no transaction is in flight.
  void Checkpoint();
  /// Loads each (recreated) fragment's checkpoint image. A dropped table's
  /// slot holds neither, so its rows never reach a later table.
  Status RestoreCheckpoint();

  Status CheckInvariants() const;

 private:
  CostTracker::WriteKind WriteKindOf(TableId table) const;
  Status MissingFragment(TableId table) const;

  /// X-locks the row's content identity and every indexed key it carries.
  Status LockForWrite(uint64_t txn_id, TableId table,
                      const TableFragment& frag, const Row& row);

  /// Logs one write that just changed the heap at `lrid` (under the node
  /// latch): appends its WAL record and, for an explicit transaction,
  /// records it in the transaction's write set. An autocommit write to a
  /// versioned fragment publishes its MVCC version op at once. `row` is the
  /// inserted tuple or the delete victim's content — version identity is by
  /// content, never by lrid (the free list recycles lrids, so an lrid can
  /// alias a different row by publish time); the op's pages_after /
  /// rows_after capture the fragment's shape at this instant. The op copies
  /// `row` only for a delete (undo) or when snapshots are on (publish).
  void LogWrite(uint64_t txn_id, TableId table, TableFragment* frag,
                LocalRowId lrid, MvccOp::Kind kind, const Row& row);
  /// The version op LogWrite records for a write of `row` that just left
  /// `frag` in its current shape.
  MvccOp VersionOp(MvccOp::Kind kind, const Row& row,
                   const TableFragment& frag) const;
  /// Publishes an autocommit write's version ops as one delta at once (the
  /// write is already durable and has no 2PC decision to wait for), then
  /// piggybacks version GC. Safe under the node latch: the publish path
  /// takes no latches (lock order latch -> publish_mu_).
  void PublishAutocommit(TableFragment* frag, std::vector<MvccOp> ops);

  int id_;
  CostTracker* tracker_;
  TxnManager* txns_;
  LockManager* locks_;
  SnapshotManager* snaps_;
  mutable NodeLatch latch_;
  Wal wal_;
  /// One table's state on this node, at index TableId of `slots_`.
  struct TableSlot {
    /// Null once the table is dropped, and from a crash until recovery.
    std::unique_ptr<TableFragment> fragment;
    TableKind kind = TableKind::kBase;
    std::string name;  // For error text.
    /// Simulated durable checkpoint: the rows at the last Checkpoint in the
    /// common row encoding (common/row.h). Survives Crash() like the WAL.
    std::string checkpoint;
  };
  std::vector<TableSlot> slots_;
};

/// \brief RAII latch scope over one node: takes the node's latch in the
/// requested mode and marks the thread as latched (so the lock manager
/// refuses to park it on a transaction lock — shared holders included,
/// since the holder may itself need the exclusive latch to progress). Use
/// for any direct fragment/index access outside the Node methods; default
/// exclusive, pass LatchMode::kShared for read-only sections.
class NodeLatchGuard {
 public:
  explicit NodeLatchGuard(const Node& node,
                          LatchMode mode = LatchMode::kExclusive)
      : latch_(&node.latch()), mode_(mode) {
    if (mode_ == LatchMode::kShared) {
      latch_->AcquireShared();
    } else {
      latch_->AcquireExclusive();
    }
  }
  ~NodeLatchGuard() {
    if (mode_ == LatchMode::kShared) {
      latch_->ReleaseShared();
    } else {
      latch_->ReleaseExclusive();
    }
  }

  NodeLatchGuard(const NodeLatchGuard&) = delete;
  NodeLatchGuard& operator=(const NodeLatchGuard&) = delete;

 private:
  const NodeLatch* latch_;
  LatchMode mode_;
  LatchDepthScope depth_;
};

class Gauge;

/// \brief The process-wide `pjvm_mvcc_versions_live` gauge: live MVCC chain
/// deltas across every fragment, moved by autocommit publishes (Node) and
/// 2PC commits (ParallelSystem) alike.
Gauge* MvccVersionsLiveGauge();

/// Folds `frag`'s version chain when it lies entirely below `watermark`,
/// moving the reclaimed deltas from the live gauge to the
/// `pjvm_mvcc_gc_reclaimed` counter.
void MvccFoldBelowWatermark(TableFragment* frag, uint64_t watermark);

}  // namespace pjvm

#endif  // PJVM_ENGINE_NODE_H_
