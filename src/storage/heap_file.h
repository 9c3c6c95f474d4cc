#ifndef PJVM_STORAGE_HEAP_FILE_H_
#define PJVM_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief A paged heap of rows with stable local row ids.
///
/// Rows live in fixed-capacity pages of `rows_per_page` slots. A local row
/// id encodes (page, slot) as `page * rows_per_page + slot` and is stable
/// until the row is deleted; deleted slots are recycled by later inserts.
/// Page counts feed the cost model (e.g., sort-merge scan cost is the number
/// of pages, as in the paper's |B| and |B_i| quantities).
class HeapFile {
 public:
  explicit HeapFile(int rows_per_page = 64);

  /// Inserts a row, returning its stable local row id.
  LocalRowId Insert(Row row);

  /// Makes room for `rows` more inserts in one allocation (geometric growth
  /// kept), so a bulk run does not grow the slot array row by row.
  void Reserve(size_t rows);

  /// Row at `lrid`, or nullptr if the slot is empty/out of range.
  const Row* Get(LocalRowId lrid) const;

  /// Deletes the row at `lrid`; NotFound if the slot is empty.
  Status Delete(LocalRowId lrid);

  /// Deletes the row at `lrid` but keeps the slot reserved: it is NOT added
  /// to the free list, so no later Insert can recycle the lrid until
  /// ReleaseSlot(lrid). Transactional deletes use this so an abort can
  /// restore the row at its original lrid — committed global-index entries
  /// reference (node, lrid), so a row that comes back anywhere else leaves
  /// them dangling.
  Status DeleteKeepSlot(LocalRowId lrid);

  /// Recycles a slot previously emptied by DeleteKeepSlot (commit path).
  void ReleaseSlot(LocalRowId lrid) { free_list_.push_back(lrid); }

  /// Restores a row into its reserved slot (abort path). The slot must be
  /// empty and must not be on the free list — guaranteed for slots emptied
  /// by DeleteKeepSlot and not yet released.
  Status InsertAt(LocalRowId lrid, Row row);

  /// Replaces the row at `lrid`; NotFound if the slot is empty.
  Status Update(LocalRowId lrid, Row row);

  /// Visits every live row. Returning false stops the iteration.
  void ForEach(const std::function<bool(LocalRowId, const Row&)>& fn) const;

  size_t num_rows() const { return live_count_; }
  /// Number of allocated pages (including pages that are now sparse).
  size_t num_pages() const;
  int rows_per_page() const { return rows_per_page_; }
  /// Sum of live rows' byte footprints.
  size_t byte_size() const { return byte_size_; }

 private:
  int rows_per_page_;
  std::vector<std::optional<Row>> slots_;
  std::vector<LocalRowId> free_list_;
  size_t live_count_ = 0;
  size_t byte_size_ = 0;
};

}  // namespace pjvm

#endif  // PJVM_STORAGE_HEAP_FILE_H_
