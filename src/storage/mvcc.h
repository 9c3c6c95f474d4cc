#ifndef PJVM_STORAGE_MVCC_H_
#define PJVM_STORAGE_MVCC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/row.h"
#include "common/value.h"

namespace pjvm {

/// \brief Epoch-based multi-version state of one table fragment.
///
/// The representation is an immutable *versioned fragment snapshot*: a
/// folded base image plus a chain of per-commit deltas, newest first. The
/// whole structure is published through one atomic shared_ptr on the
/// fragment, so a reader captures a self-consistent state with a single
/// acquire load and then walks purely immutable data — reads are wait-free
/// and never touch a latch or the lock manager.
///
/// Visibility is by epoch: a commit publishes one MvccDelta stamped with the
/// epoch the SnapshotManager assigned it, and a reader at epoch E applies
/// exactly the deltas with `epoch <= E` on top of the base. Deltas above E
/// (in-flight commits published after the reader pinned its epoch) are
/// simply skipped. The base's epoch is kept at or below the minimum active
/// read epoch by the fold watermark (see TableFragment::MvccMaybeFold), so
/// the base is visible to every live reader by construction.
///
/// Version identity is the row's *content*, exactly like the engine's own
/// DeleteExact: a delete op removes one content-equal row from the visible
/// image. Heap lrids deliberately do not appear here — the heap recycles
/// them through a free list, so an lrid observed at op-execution time can
/// alias a different row by the time the op publishes (another transaction
/// reused the slot, or an abort's undo re-inserted a row elsewhere), which
/// would corrupt lrid-keyed composition.

/// \brief One logical heap mutation inside a published delta.
///
/// Ops carry the full row for both signs: a delete's row is the victim's
/// content (the match key), an insert's row is the new tuple.
/// `pages_after`/`rows_after` snapshot the fragment's shape right after the
/// op executed (captured under the node latch at record time — reading the
/// live heap at publish time would race with concurrent writers); the
/// newest visible delta's values stand in for `num_pages()`/`num_rows()` on
/// the snapshot read path, keeping full-scan charges bit-identical to the
/// live path in single-threaded runs.
struct MvccOp {
  enum class Kind : uint8_t { kInsert = 0, kDelete };
  Kind kind = Kind::kInsert;
  Row row;
  size_t pages_after = 0;
  size_t rows_after = 0;
};

/// \brief Access-path metadata carried by the base image, mirroring the
/// fragment's LocalIndex set at fold time (column + clustered flag — enough
/// to pick the same access path and charge the same costs as the live
/// read).
struct MvccIndexMeta {
  int column = -1;
  bool clustered = false;
};

/// \brief Folded image of the fragment at `epoch`: all live rows (in the
/// heap's ForEach order at fold time) plus per-index postings for
/// probe/range reads without touching the B+-trees.
struct MvccBase {
  uint64_t epoch = 0;
  int rows_per_page = 64;
  size_t num_pages = 0;
  std::vector<Row> rows;
  std::vector<MvccIndexMeta> index_meta;
  /// postings[i] belongs to index_meta[i]: key -> indices into `rows`, in
  /// arrival order.
  std::vector<std::map<Value, std::vector<size_t>>> postings;
};

/// \brief One committed transaction's ops against this fragment, in
/// execution order. `prev` links to the next-older delta (or null when the
/// delta sits directly on the base). `chain_ops` counts ops in this delta
/// and every older one above the base — the fold trigger.
struct MvccDelta {
  uint64_t epoch = 0;
  std::vector<MvccOp> ops;
  size_t num_pages = 0;
  size_t num_rows = 0;
  size_t chain_ops = 0;
  std::shared_ptr<const MvccDelta> prev;
};

/// \brief The unit a fragment publishes atomically: base + newest delta.
struct MvccState {
  std::shared_ptr<const MvccBase> base;
  std::shared_ptr<const MvccDelta> head;  // null = no unfolded deltas
};

/// \brief Probe output on the snapshot path (mirrors ProbeResult's rows
/// without depending on table_fragment.h).
struct MvccProbeOut {
  std::vector<Row> rows;
};

/// Index metadata for `column` in this state's base image, or nullptr.
const MvccIndexMeta* MvccFindIndex(const MvccState& state, int column);

/// Fragment page count as of the newest delta visible at `epoch` (base
/// value when no delta is visible). Exact single-threaded; a cost-charging
/// approximation under concurrent commits.
size_t MvccNumPages(const MvccState& state, uint64_t epoch);
/// Live-row count visible at `epoch`, composed exactly at any epoch.
size_t MvccNumRows(const MvccState& state, uint64_t epoch);

/// Rows with `column` == `key` visible at `epoch`. Uses the base postings
/// when the column is indexed in the image; otherwise composes and filters
/// (the ScanEq equivalent). The row multiset matches the live fragment's
/// Probe/ScanEq exactly for the same visible commits.
MvccProbeOut MvccProbe(const MvccState& state, uint64_t epoch, int column,
                       const Value& key);

/// Match count only (planning estimates; no row copies).
size_t MvccProbeCount(const MvccState& state, uint64_t epoch, int column,
                      const Value& key);

/// Appends rows with lo <= row[column] <= hi visible at `epoch` to `out`,
/// in ascending key order; returns the number delivered.
size_t MvccScanRange(const MvccState& state, uint64_t epoch, int column,
                     const Value& lo, const Value& hi, std::vector<Row>* out);

/// Visits every row visible at `epoch` in place, in composition order (base
/// image order, then chain inserts in commit order).
void MvccForEachRow(const MvccState& state, uint64_t epoch,
                    const std::function<void(const Row&)>& fn);

/// Number of deltas in the state's chain (metrics / tests).
size_t MvccChainLength(const MvccState& state);

/// Folds every delta of `state` into a fresh base image stamped with the
/// head delta's epoch. Precondition: the caller verified the whole chain is
/// at or below the GC watermark (no live reader can need the old base).
std::shared_ptr<const MvccBase> MvccFoldAll(const MvccState& state);

}  // namespace pjvm

#endif  // PJVM_STORAGE_MVCC_H_
