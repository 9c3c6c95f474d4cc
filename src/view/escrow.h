#ifndef PJVM_VIEW_ESCROW_H_
#define PJVM_VIEW_ESCROW_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "engine/system.h"
#include "storage/row_id.h"
#include "view/view_def.h"

namespace pjvm {

/// \brief Escrow (value-lock) maintenance of aggregate join views.
///
/// The eager aggregate path serializes every maintenance transaction that
/// touches the same group row: each one X-locks the group's index key,
/// deletes the old row, and inserts the folded row. For a hot group (the
/// one-key COUNT/SUM hotspot bench_contention measures) that X lock is the
/// whole story — writers queue on it and throughput is flat in the thread
/// count. But COUNT and SUM increments *commute*: any interleaving of
/// `+= d` operations reaches the same state, so the X lock is stronger than
/// the operation needs. This registry implements the classic escrow/value
/// lock refinement:
///
///  - A maintenance transaction folding a contribution into an existing
///    group acquires the group's index key in `LockMode::kValue` (V) — the
///    same LockId the eager path X-locks and readers S-probe. V is
///    compatible with V, so concurrent incrementers proceed in parallel;
///    readers (S) and eager writers (X) still conflict, so scans and
///    snapshots never observe a torn group.
///  - Each in-flight transaction's contribution is kept as a private
///    *inverse delta* in a per-(node, view, group) journal entry beside the
///    group's last committed image. The heap row is rewritten in place
///    (Node::EscrowReplace) to `committed ⊕ all in-flight deltas` so
///    same-transaction reads and the maintainers' estimation scans see
///    current bytes; commit folds the transaction's delta into the
///    committed image, abort simply drops it and restores
///    `committed ⊕ remaining` — the exact committed-derived bytes, never a
///    subtraction (floating-point subtraction does not invert addition:
///    (0.1 + 1e16) - 1e16 == 0).
///  - **Group birth and death are the non-commutative edges.** A
///    contribution for a missing group, or one that would drive the
///    transaction's own accumulated count negative, escalates V→X: the
///    upgrade waits out (or, under wait-die, dies behind) every other V
///    holder, and its grant therefore implies sole ownership with the
///    journal settled — the transaction then replays its accumulated delta
///    through the eager delete+insert path and stays eager on that group
///    for the rest of its life. The own-count rule is deliberately
///    conservative: every delta resident in escrow keeps count >= 0, so the
///    committed count can never reach zero while the journal is live and a
///    zero-count row can never be resurrected by a late increment —
///    group death is always decided against settled state, under X.
///
/// **Determinism.** Commit folds `committed ⊕= own` in commit order, which
/// is byte-for-byte the serial eager schedule in that order; every heap
/// rewrite recomputes `committed ⊕ deltas` in ascending transaction id so
/// in-flight bytes are a pure function of the journal, not of arrival
/// history. The escrow_eager_equivalence tests compare fingerprints.
///
/// **Durability.** Escrow rewrites bypass the per-op WAL record and the
/// transaction's write set (the journal owns rollback and version ops; the
/// touched node only joins the 2PC participants); instead OnPrepare appends
/// one logical kEscrowDelta record per touched group to the owning node's
/// WAL — covered by the 2PC prepare forces — and recovery adds the deltas
/// back onto the prefix-matched group row. Replay order is safe because a
/// group's birth (a physical insert under X) strictly precedes every escrow
/// delta against it in the same log.
///
/// Lifecycle integration is via ParallelSystem::SetTxnHook — see the
/// TxnHook contract in engine/system.h. The journal mutex is a strict leaf:
/// taken under node latches and under the snapshot publish section, never
/// the reverse.
class EscrowRegistry : public TxnHook {
 public:
  explicit EscrowRegistry(ParallelSystem* sys) : sys_(sys) {}

  /// Registers `bound` (which must outlive the registration) for escrow
  /// maintenance if eligible: an aggregate view, hash-partitioned on a
  /// group column (the partition index key is the escrow lock identity;
  /// round-robin global aggregates keep the eager path). Ineligible views
  /// are ignored.
  void AddView(TableId view, const BoundView* bound);
  void RemoveView(TableId view);

  /// Routes one aggregate contribution (stored layout, produced by
  /// BoundView::OutputRow) destined for `node`. Returns true if the journal
  /// handled it — the caller skips the eager fold entirely — or false if
  /// the eager path must run (view not registered, autocommit, or the
  /// group's birth/death edge, for which the group is already X-locked and
  /// marked eager-for-this-transaction on return).
  Result<bool> Apply(uint64_t txn, int node, TableId view,
                     const Row& contribution, bool is_delete);

  // TxnHook:
  bool HasState(uint64_t txn_id) const override;
  Status OnPrepare(uint64_t txn_id) override;
  std::vector<TxnWrite> OnCommitFold(uint64_t txn_id) override;
  Status OnCommitFinalize(uint64_t txn_id) override;
  void OnAbort(uint64_t txn_id) override;

  /// Drops all journal state (crash: the heaps are gone and every in-flight
  /// transaction is presumed aborted; recovery replays committed deltas
  /// from the WALs).
  void Reset();

  /// Quiescent-point invariant: journal entries exist only while their
  /// transactions hold V locks, so with no transaction in flight the
  /// journal must be empty (ViewManager::CheckAllConsistent asserts this
  /// before the from-scratch oracle compares contents byte-for-byte).
  Status CheckConsistent() const;

 private:
  /// (node, group-prefix values) — one journaled group row.
  using GroupKey = std::pair<int, Row>;
  /// (view table, group key) — one transaction's touch of one group.
  using GroupRef = std::pair<TableId, GroupKey>;

  struct GroupState {
    /// The group row as of the last commit that touched it (stored layout).
    Row committed;
    /// The row's heap slot. Stable while this state exists: every resident
    /// delta's owner holds V until release, so no X writer can move it.
    LocalRowId lrid = 0;
    /// Fragment shape captured under the latch at the last rewrite, carried
    /// into the commit-time version ops (see MvccOp's doc).
    size_t pages = 0;
    size_t rows = 0;
    /// In-flight inverse deltas by transaction id ([group..., count delta,
    /// agg deltas...]); heap = committed ⊕ all of these, folded ascending.
    std::map<uint64_t, Row> deltas;
    /// Transactions whose delta is folded into `committed` but whose commit
    /// epilogue has not yet rewritten the heap / released locks.
    std::set<uint64_t> finalizing;

    bool Settled() const { return deltas.empty() && finalizing.empty(); }
  };

  struct ViewState {
    const BoundView* bound = nullptr;
    std::map<GroupKey, GroupState> groups;
  };

  /// committed ⊕ in-flight deltas, folded in ascending txn id. `mu_` held.
  static Row FoldedRow(const BoundView& bound, const GroupState& gs);
  /// Rewrites the group's heap row to FoldedRow and refreshes the captured
  /// fragment shape. Caller holds the node's exclusive latch and `mu_`.
  Status RewriteHeapLocked(TableId view, ViewState& vs,
                           const GroupKey& key, GroupState& gs);
  /// V→X escalation epilogue: marks the (txn, group) eager and tallies the
  /// upgrade in the active TxnMeter. `mu_` held.
  void MarkExclusiveLocked(uint64_t txn, TableId view, const GroupKey& key);
  /// Replays a transaction's accumulated (signed) delta through the eager
  /// delete+insert path, under the group's X lock. No latch held on entry.
  Status ApplyEagerSynthetic(uint64_t txn, int node_id, TableId view,
                             const BoundView& bound, const Row& synthetic);
  /// Drops every per-transaction record (refs and eager marks).
  void ClearTxnLocked(uint64_t txn_id);

  ParallelSystem* sys_;

  /// Leaf mutex guarding all maps below (see the class comment).
  mutable std::mutex mu_;
  std::map<TableId, ViewState> views_;
  /// Groups each in-flight transaction has a resident delta or finalizing
  /// mark in.
  std::map<uint64_t, std::set<GroupRef>> txn_refs_;
  /// Groups a transaction handles eagerly (post-escalation): Apply answers
  /// false for these so the caller's eager fold runs under the held X lock.
  std::map<uint64_t, std::set<GroupRef>> txn_eager_;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_ESCROW_H_
