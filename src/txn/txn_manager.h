#ifndef PJVM_TXN_TXN_MANAGER_H_
#define PJVM_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/mvcc.h"
#include "storage/row_id.h"

namespace pjvm {

/// Transaction id 0 denotes autocommit: single operations outside an
/// explicit transaction, always considered committed.
inline constexpr uint64_t kAutoCommitTxnId = 0;

/// \brief Lifecycle state of a transaction at the coordinator.
enum class TxnState {
  kActive = 0,
  kPreparing,
  kCommitted,
  kAborted,
};

/// \brief Points where tests may inject a coordinator/system crash during
/// two-phase commit.
enum class FailurePoint {
  kNone = 0,
  /// Crash before any participant prepared: transaction must roll back.
  kBeforePrepare,
  /// Crash after all participants prepared but before the coordinator logged
  /// its decision: transaction must roll back (presumed abort).
  kAfterPrepare,
  /// Crash after the coordinator logged commit but before participants were
  /// told: transaction must still commit on recovery.
  kAfterDecision,
};

/// \brief One write of an explicit transaction, recorded once by the node
/// that made it, under its latch, after the heap op succeeded.
///
/// The one list of these per transaction serves every commit and abort
/// need: its nodes are the 2PC participants, its `op`s are the MVCC version
/// ops published at the commit epoch (version identity is by content, never
/// by lrid, which the free list recycles), and walked backwards it is the
/// undo log. Undo is by row id: an undone insert frees `lrid`, an undone
/// delete re-inserts `op.row` at `lrid`. Restoring a deleted row at its
/// *original* lrid matters: committed global-index entries reference (node,
/// lrid), so a compensating re-insert that landed anywhere else would leave
/// them dangling. The slot is guaranteed free because a transactional delete
/// reserves it (HeapFile::DeleteKeepSlot) until commit releases it.
struct TxnWrite {
  int node = 0;
  TableId table = kNoTable;
  LocalRowId lrid = 0;
  /// Kind, row (the inserted tuple or the delete victim) and the fragment's
  /// shape right after the write.
  MvccOp op;
};

/// \brief The write set of one transaction: its writes in execution order
/// and every node that must vote in 2PC (each write's node, plus nodes the
/// transaction touched without a write, see TxnManager::AddParticipant).
struct TxnWriteSet {
  std::vector<TxnWrite> writes;
  std::set<int> participants;
};

/// \brief Transaction coordinator: ids, states, the durable decision log,
/// and each in-flight transaction's write set.
///
/// The execution engine (ParallelSystem) drives the 2PC protocol; this class
/// holds the authoritative state it reads during recovery.
///
/// Per-transaction working state is one record in one map: the lifecycle
/// state plus the write set (TxnWriteSet) that undo, MVCC publish, the
/// participant set and the release of reserved heap slots are all derived
/// from. All methods but the failure injection (one atomic) are guarded by
/// one internal mutex: multiple client threads begin/commit transactions
/// concurrently while per-node executor workers record writes during
/// parallel write fan-outs. Each write costs one acquisition; a commit
/// costs four (prepare, take the write set, decision, forget).
///
/// **Lifetime of per-transaction state.** The record is dropped by
/// `Forget()` once the engine finishes commit or abort processing — memory
/// stays bounded under a sustained workload. The durable commit-decision set
/// (`committed_ids_`) must outlive that: WAL replay after a crash asks
/// `IsCommitted()` about any txn id appearing in a surviving log record. It
/// is pruned only behind the durable low-water mark — `PruneCommittedBelow()`
/// at checkpoint, when every node's WAL has been truncated and no id below
/// the mark can appear in a future replay. `state()` reports `kCommitted`
/// for any id in the decision set and `kAborted` for ids it no longer
/// tracks, so forgetting a finished transaction never changes the answer an
/// observer sees.
class TxnManager {
 public:
  TxnManager() = default;

  /// Starts a transaction and returns its id (> 0). Ids increase
  /// monotonically; wait-die uses them as transaction age (smaller = older).
  uint64_t Begin();

  TxnState state(uint64_t txn_id) const;

  /// True iff the coordinator durably decided commit (autocommit always is).
  bool IsCommitted(uint64_t txn_id) const;

  /// True while any transaction is active or preparing.
  bool HasActive() const;

  /// Transitions used by the engine's 2PC driver.
  Status MarkPreparing(uint64_t txn_id);
  /// Durably logs the commit decision (the 2PC "commit point").
  Status LogCommitDecision(uint64_t txn_id);
  Status MarkAborted(uint64_t txn_id);

  /// Appends one write to the transaction's write set and makes its node a
  /// participant. Safe from concurrent node workers. A transaction the
  /// coordinator no longer tracks (dropped by a crash) records nothing.
  void RecordWrite(uint64_t txn_id, TxnWrite write);
  /// RecordWrite for one node's run of writes, in order, under one lock.
  void RecordWrites(uint64_t txn_id, std::vector<TxnWrite> writes);
  /// Makes `node` a 2PC participant without a write (an escrow touch, whose
  /// journal owns its own undo and version ops).
  void AddParticipant(uint64_t txn_id, int node);
  /// Moves the write set out (empty for an untracked id, which stays
  /// untracked). The lifecycle state stays until Forget().
  TxnWriteSet TakeWriteSet(uint64_t txn_id);

  /// Drops the working state of a finished transaction. Call after
  /// commit/abort processing is complete. The durable commit decision
  /// survives, so `state()` / `IsCommitted()` keep answering correctly.
  void Forget(uint64_t txn_id);

  /// Erases commit decisions for txn ids `< low_water`. Only call when no
  /// WAL can still hold records of those transactions (i.e., right after a
  /// checkpoint truncated every node's log). Returns how many were pruned.
  size_t PruneCommittedBelow(uint64_t low_water);

  /// The id the next Begin() will assign — the exclusive upper bound on all
  /// ids handed out so far (a valid `PruneCommittedBelow` low-water mark at
  /// a quiescent checkpoint).
  uint64_t next_txn_id() const;

  /// Failure injection for tests; consumed on first trigger.
  void InjectFailure(FailurePoint point) { failure_.store(point); }
  /// Returns true (and clears the injection) when `point` matches.
  bool ShouldFailAt(FailurePoint point) {
    return point != FailurePoint::kNone && failure_.load() == point &&
           failure_.compare_exchange_strong(point, FailurePoint::kNone);
  }

  /// Number of transactions with live working state (tests / introspection:
  /// verifies Forget() keeps memory bounded).
  size_t TrackedCount() const;

  /// Simulated coordinator crash: all working state of in-flight
  /// transactions is dropped (presumed abort — state is rebuilt from logs,
  /// not undone live). Only the durable decision set survives.
  void CrashAndRecover();

 private:
  struct Record {
    TxnState state = TxnState::kActive;
    TxnWriteSet write_set;
  };

  mutable std::mutex mu_;
  uint64_t next_txn_id_ = 1;
  std::unordered_map<uint64_t, Record> records_;
  std::set<uint64_t> committed_ids_;
  std::atomic<FailurePoint> failure_{FailurePoint::kNone};
};

}  // namespace pjvm

#endif  // PJVM_TXN_TXN_MANAGER_H_
