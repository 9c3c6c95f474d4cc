#ifndef PJVM_VIEW_MERGED_STORAGE_H_
#define PJVM_VIEW_MERGED_STORAGE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/system.h"
#include "storage/merged_tree.h"
#include "view/maintainer.h"
#include "view/view_def.h"

namespace pjvm {

// Defined in view/view_manager.h; forward-declared here (scoped enums have a
// fixed int underlying type) to avoid a header cycle with ViewManager.
enum class MaintenanceTiming;

/// \brief Per-view merged co-clustered storage for the AR method
/// (SystemConfig::merged_ar_storage).
///
/// The separate layout keeps one B-tree per structure a maintenance delta
/// touches: the AR's clustered index, the view's partition index, and (when
/// co-partitioned) the base's join-attribute index. Every delta row pays one
/// tree descent per structure. The merged layout instead keeps, per node, ONE
/// key-ordered tree whose composite key is (join_key, source_tag, source_pk)
/// — see storage/merged_tree.h — interleaving the partition-aligned source
/// rows and the view tuples of each join key. A maintenance delta descends
/// once into the key's range and performs every probe and edit in-range, so
/// the per-delta descent count drops from O(#structures) to O(#key ranges).
///
/// **Cluster membership.** The merged tree is keyed by the view's output
/// partitioning attribute. A (base, column) pair is a cluster *member* when
/// its join edges connect it — transitively — to that attribute: any row of
/// the member with column value k lands on HomeNodeForKey(k), the same node
/// as the view rows with partition value k, so co-clustering them is free of
/// extra shipping. Each member stores pi(sigma_view(base)) rows projected to
/// the columns this view needs (plus the join and predicate columns) —
/// exactly what the probe path consumes, pre-filtered by the view's own
/// selection predicates. Bases outside the cluster keep the normal AR probe
/// path.
///
/// **Source of truth.** Heap contents (base tables, ARs, the view table)
/// remain authoritative; the merged tree is a redundant key-ordered access
/// path, rebuilt from the heaps at registration and after crash recovery
/// (invariant 10 in DESIGN.md: its contents must always equal the
/// rebuild-from-heap expectation, so merged and separate layouts hold
/// byte-identical view contents).
///
/// **Concurrency.** Tree edits and scans run under the owning node's latch
/// (exclusive / shared), like every other per-node structure. Transactions
/// serialize per key range: the first merged operation of a transaction on
/// one (node, join key) range takes an EXCLUSIVE range lock —
/// LockId::IndexKey(node, lock_id_, 0, key), an id of the catalog's
/// never-reused sequence that names no table, so it never collides with
/// the view's key locks — composing with lock escalation and the wait-die
/// retry loop like any other key lock; later operations of the same
/// transaction on that range are free. Edits are applied eagerly and
/// journaled: commit forgets the journal, abort applies
/// the inverse edits in reverse *before* the lock release, so no successor
/// can acquire the range and observe a half-rolled-back tree (strict 2PL).
///
/// **Cost accounting.** The first operation per (txn, node, range) charges
/// one SEARCH and one tree descent (CostTracker::ChargeDescent) and bumps
/// `pjvm_merged_range_ops`; in-range probes and edits charge nothing more.
/// The separate layout charges one SEARCH per probe and one descent per
/// index touched, so the two layouts are compared on identical primitives.
/// `pjvm_merged_bytes` gauges the trees' footprint, which TableBytes
/// attributes to the owning view via the storage overlay.
class MergedViewStorage {
 public:
  /// One base/AR source interleaved into the merged tree.
  struct Member {
    int base_idx = -1;         ///< Index within the view's bases.
    std::string source_table;  ///< Base table the member mirrors.
    TableId source_id = kNoTable;
    int col = -1;              ///< Full-schema join column (cluster attr).
    /// Ascending full-schema columns stored (needed + col + pred columns).
    std::vector<int> cols;
    /// The view's selection predicates on this base (full-schema columns);
    /// rows failing them never enter the tree.
    std::vector<BoundPred> preds;
    /// Position of each needed column (bound.needed_cols order) in `cols`.
    std::vector<int> needed_pos;
    uint8_t tag = 0;
  };

  /// True when `bound` can use merged storage under this configuration:
  /// the knob is on, the method is AUX_RELATION with immediate timing, the
  /// view is non-aggregate and hash-partitioned on an output column.
  static bool Eligible(const SystemConfig& config, const BoundView& bound,
                       MaintenanceMethod method, MaintenanceTiming timing);

  /// Computes the cluster for an eligible view. The trees start empty; call
  /// RebuildFromHeaps() once the view table is backfilled.
  MergedViewStorage(ParallelSystem* sys, const BoundView& bound);

  /// The pseudo-table name of the merged tree (hop bytes, trace details).
  const std::string& lock_table() const { return lock_table_; }
  const std::vector<Member>& members() const { return members_; }

  /// True when (base_idx, col) is a cluster member, i.e. a maintenance step
  /// targeting it can probe the merged tree instead of the AR.
  bool CoversBase(int base_idx, int col) const;

  /// Probes member `(base_idx, col)`'s rows for `key` at `node`, emitting
  /// each matching row projected to the base's needed tuple. Charges the
  /// range descent on first touch (see class comment). The column
  /// disambiguates bases that contribute two join columns to the cluster.
  Status ProbeMember(uint64_t txn, int node, int base_idx, int col,
                     const Value& key,
                     const std::function<Status(const Row&)>& fn);

  /// Mirrors one base-table delta into the member entries (deletes first),
  /// piggybacking on the structure-update phase: the rows were already
  /// shipped to their key homes, so mirroring sends nothing. Rows failing a
  /// member's predicates are skipped. No-op for non-member tables.
  Status MirrorDelta(uint64_t txn, const DeltaBatch& delta);

  /// Mirrors one view-row insert/delete (wired into
  /// MaterializedView::ApplyOutputs through the merged hook).
  Status ApplyViewEdit(uint64_t txn, int node, const Row& row, bool is_delete);

  /// Commit epilogue: forgets the transaction's journal and open ranges.
  void OnCommit(uint64_t txn);
  /// Abort epilogue: applies the transaction's inverse edits in reverse.
  /// MUST run before the transaction's locks are released (see class
  /// comment); ViewManager calls it before System::Abort.
  void OnAbort(uint64_t txn);

  /// Drops and rebuilds every node's tree from the current heap contents
  /// (registration backfill, which first resolves the view table's id;
  /// crash recovery). Also clears any in-flight transaction state. Charges
  /// nothing.
  Status RebuildFromHeaps();

  /// Verifies invariant 10: each node's tree holds exactly the member and
  /// view rows the heaps imply, entry for entry.
  Status CheckConsistent() const;

  /// Total tree footprint across nodes (the TableBytes overlay source).
  size_t TreeBytes() const;
  /// Range descents charged since construction (tests/bench).
  uint64_t range_ops() const;

 private:
  struct Edit {
    int node;
    Value join_key;
    uint8_t tag;
    Row row;
    bool was_insert;
  };
  struct TxnState {
    /// (node, key prefix) ranges already locked + charged.
    std::set<std::pair<int, std::string>> ranges;
    std::vector<Edit> journal;
  };

  /// First-touch bookkeeping for (txn, node, key): range lock, SEARCH +
  /// descent charge, pjvm_merged_range_ops. Aborted when the lock loses.
  Status EnsureRange(uint64_t txn, int node, const Value& key);
  /// One journaled tree edit under the node's exclusive latch.
  Status ApplyEdit(uint64_t txn, int node, const Value& key, uint8_t tag,
                   const Row& row, bool is_insert);

  ParallelSystem* sys_;
  std::string view_name_;
  /// The view table's id, resolved once it exists (RebuildFromHeaps).
  TableId view_id_ = kNoTable;
  std::string lock_table_;
  /// The range locks' own id (see the class comment).
  TableId lock_id_;
  int view_pcol_ = -1;  ///< Output-row column the composite key comes from.
  std::vector<Member> members_;
  /// One tree per node, index == node id. Guarded by the node's latch.
  std::vector<std::unique_ptr<MergedTreeFragment>> trees_;

  /// Guards txns_ only (never held across a lock acquire or a latch).
  mutable std::mutex mu_;
  std::map<uint64_t, TxnState> txns_;
  std::atomic<uint64_t> range_ops_{0};
};

}  // namespace pjvm

#endif  // PJVM_VIEW_MERGED_STORAGE_H_
