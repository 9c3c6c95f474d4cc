#include "storage/stats.h"

#include "common/value.h"

namespace pjvm {

ColumnStats ComputeColumnStats(const TableFragment& fragment, int column) {
  ColumnStats stats;
  // Use the index's distinct-key count when one exists; otherwise scan.
  const LocalIndex* index = fragment.FindIndex(column);
  if (index != nullptr) {
    stats.row_count = index->tree.num_items();
    stats.distinct_count = index->tree.num_keys();
    return stats;
  }
  return ScanColumnStats(column, [&](const auto& visit) {
    fragment.ForEach([&](LocalRowId, const Row& row) {
      visit(row);
      return true;
    });
  });
}

}  // namespace pjvm
