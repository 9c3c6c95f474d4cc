#ifndef PJVM_STORAGE_TABLE_FRAGMENT_H_
#define PJVM_STORAGE_TABLE_FRAGMENT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "storage/mvcc.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief A secondary access path on one fragment column.
struct LocalIndex {
  int column = -1;
  /// Clustered means the fragment is physically organized so that all rows
  /// with one key value are co-located (the paper charges zero FETCHes for a
  /// clustered probe on that assumption; a non-clustered probe pays one FETCH
  /// per matching row).
  bool clustered = false;
  BPlusTree<LocalRowId> tree;

  LocalIndex(int col, bool is_clustered)
      : column(col), clustered(is_clustered) {}
};

/// \brief Result of an index probe: the matching rows and their rids.
struct ProbeResult {
  std::vector<Row> rows;
  std::vector<LocalRowId> rids;
};

/// \brief One node's horizontal fragment of a table: a heap file plus any
/// local indexes. A fragment with no index also keeps a content-hash lookup
/// so FindExact never scans; creating the first index drops it.
///
/// Fragments are the unit the engine's per-node operations act on; all cost
/// accounting (SEARCH/FETCH/INSERT) is done by the caller, which knows the
/// node identity, using the counts this class reports.
class TableFragment {
 public:
  explicit TableFragment(Schema schema, int rows_per_page = 64);

  TableFragment(const TableFragment&) = delete;
  TableFragment& operator=(const TableFragment&) = delete;

  const Schema& schema() const { return schema_; }

  /// Creates an index on `column`. At most one index per fragment may be
  /// clustered, and at most one index per column may exist.
  Status CreateIndex(int column, bool clustered);

  bool HasIndexOn(int column) const { return FindIndex(column) != nullptr; }
  bool has_indexes() const { return !indexes_.empty(); }
  size_t num_indexes() const { return indexes_.size(); }
  const LocalIndex* FindIndex(int column) const;
  /// All indexes, for callers that need to visit every access path (e.g.
  /// index-key locking).
  std::vector<const LocalIndex*> Indexes() const;

  /// Inserts a row (validated against the schema), maintaining all indexes.
  Result<LocalRowId> Insert(Row row);

  /// Inserts `rows` in order, the caller having validated them against the
  /// schema, and calls `on_row(lrid, stored row)` right after each heap
  /// append (num_rows()/num_pages() then count that row). The heap and every
  /// posting list end as after one Insert per row; into an empty fragment
  /// each index is built bottom-up from the run instead of row by row.
  void InsertRun(std::vector<Row> rows,
                 const std::function<void(LocalRowId, const Row&)>& on_row);

  /// Deletes the row at `lrid`, maintaining all indexes. With `keep_slot`
  /// the heap slot stays reserved (see HeapFile::DeleteKeepSlot) so the row
  /// can be restored at the same lrid by InsertAt — the transactional-delete
  /// path, which must survive an abort without moving the row.
  Status DeleteByRid(LocalRowId lrid, bool keep_slot = false);

  /// Deletes one row equal to `row` (bag semantics: exactly one instance,
  /// the one FindExact finds).
  Result<LocalRowId> DeleteExact(const Row& row, bool keep_slot = false);

  /// Recycles a slot previously deleted with `keep_slot` (commit path).
  void ReleaseSlot(LocalRowId lrid) { heap_.ReleaseSlot(lrid); }

  /// Restores a row into its reserved slot, maintaining all indexes (abort
  /// path; the inverse of a keep_slot delete).
  Status InsertAt(LocalRowId lrid, Row row);

  /// Finds the rid of one row equal to `row` without deleting it: the
  /// earliest surviving insert among equal rows (rows present when the index
  /// was created count in lrid order). Compares full rows within the posting
  /// list of the index with the most distinct keys, or within the
  /// content-hash bucket when the fragment has no index.
  Result<LocalRowId> FindExact(const Row& row) const;

  /// All rows whose `column` equals `key`, via the index on that column.
  /// Returns InvalidArgument if no such index exists.
  Result<ProbeResult> Probe(int column, const Value& key) const;

  /// All rows whose `column` equals `key`, by scanning (no index needed).
  ProbeResult ScanEq(int column, const Value& key) const;

  const Row* Get(LocalRowId lrid) const { return heap_.Get(lrid); }

  /// Visits every live row. Returning false stops.
  void ForEach(const std::function<bool(LocalRowId, const Row&)>& fn) const {
    heap_.ForEach(fn);
  }

  size_t num_rows() const { return heap_.num_rows(); }
  size_t num_pages() const { return heap_.num_pages(); }
  size_t byte_size() const { return heap_.byte_size(); }
  const HeapFile& heap() const { return heap_; }

  /// Internal consistency: every index entry points at a live row with the
  /// indexed key, and every live row appears in every index.
  Status CheckInvariants() const;

  // --- Multi-version snapshot state (see storage/mvcc.h) ---
  //
  // When enabled, the fragment carries an immutable versioned snapshot
  // (base image + delta chain) published through one atomic shared_ptr.
  // Readers capture it with MvccHead() — a single wait-free acquire load —
  // and never touch the live heap/indexes. All *stores* (publish, fold,
  // reset) are serialized by the SnapshotManager's publish lock; the
  // fragment itself takes no locks.

  /// Builds the initial base image from the current live rows at `epoch`.
  void EnableMvcc(uint64_t epoch);
  bool mvcc_enabled() const { return mvcc_enabled_; }

  /// Current snapshot state (null when MVCC is off). Wait-free.
  std::shared_ptr<const MvccState> MvccHead() const {
    return mvcc_.load(std::memory_order_acquire);
  }

  /// Publishes one committed transaction's ops as a delta at `epoch`.
  /// Caller holds the SnapshotManager publish lock.
  void MvccPublish(uint64_t epoch, std::vector<MvccOp> ops);

  /// Folds the delta chain into a fresh base image when it has grown past
  /// the fold threshold AND every delta is at or below `watermark` (the
  /// minimum active read epoch) — folding a delta a live reader has not yet
  /// applied would tear its snapshot. Returns the number of deltas folded
  /// away (0 when nothing was done). Caller holds the publish lock.
  size_t MvccMaybeFold(uint64_t watermark);

  /// Rebuilds the snapshot state from the live rows at `epoch` (recovery,
  /// checkpoint restore, index DDL — quiescent points). Returns the number
  /// of chain deltas dropped. Caller holds the publish lock.
  size_t MvccResetFromLive(uint64_t epoch);

  /// Deltas currently chained above the base (metrics / tests).
  size_t MvccChainDeltas() const;

 private:
  void IndexInsert(LocalRowId lrid, const Row& row);
  /// Fills the empty `index` from the live rows at `lrids`: a stable sort
  /// by key keeps each posting list in `lrids` order, as inserting them one
  /// by one in that order would.
  void BuildIndex(LocalIndex* index, const std::vector<LocalRowId>& lrids);
  Status IndexRemove(LocalRowId lrid, const Row& row);

  Schema schema_;
  HeapFile heap_;
  std::vector<std::unique_ptr<LocalIndex>> indexes_;
  bool has_clustered_ = false;

  /// Content hash -> lrids in insertion order; kept only while the fragment
  /// has no index (maintained by IndexInsert/IndexRemove).
  std::unordered_map<uint64_t, std::vector<LocalRowId>> row_lookup_;

  std::shared_ptr<const MvccBase> BuildBaseFromLive(uint64_t epoch) const;

  bool mvcc_enabled_ = false;
  /// Fold once the chain carries at least this many ops (and the watermark
  /// allows). Amortizes the O(rows) fold against the writes that caused it.
  size_t mvcc_fold_ops_ = 64;
  std::atomic<std::shared_ptr<const MvccState>> mvcc_;
};

}  // namespace pjvm

#endif  // PJVM_STORAGE_TABLE_FRAGMENT_H_
