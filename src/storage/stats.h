#ifndef PJVM_STORAGE_STATS_H_
#define PJVM_STORAGE_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/table_fragment.h"

namespace pjvm {

/// \brief Cardinality statistics for one column of a fragment or table.
struct ColumnStats {
  size_t row_count = 0;
  size_t distinct_count = 0;

  /// Average number of rows per distinct value (the paper's per-tuple join
  /// fanout N when this column is a join attribute). 0 when empty.
  double AvgFanout() const {
    if (distinct_count == 0) return 0.0;
    return static_cast<double>(row_count) / static_cast<double>(distinct_count);
  }

  /// Merges another fragment's stats of the same column into these.
  /// Distinct counts are summed, which is exact when the table is
  /// partitioned on this column and an upper bound otherwise (good enough
  /// for planning).
  ColumnStats& operator+=(const ColumnStats& other) {
    row_count += other.row_count;
    distinct_count += other.distinct_count;
    return *this;
  }
};

/// Exact stats of `column` over the rows `for_each_row` hands to the
/// visitor it is called with (each row once) — the one counting loop behind
/// both the live-fragment scan and the MVCC snapshot image.
template <typename ForEachRow>
ColumnStats ScanColumnStats(int column, const ForEachRow& for_each_row) {
  ColumnStats stats;
  std::unordered_set<uint64_t> seen;
  for_each_row([&](const Row& row) {
    ++stats.row_count;
    seen.insert(row[column].Hash());
  });
  stats.distinct_count = seen.size();
  return stats;
}

/// Exact column stats of one live fragment: the index's item and key counts
/// when `column` is indexed, a scan otherwise.
ColumnStats ComputeColumnStats(const TableFragment& fragment, int column);

}  // namespace pjvm

#endif  // PJVM_STORAGE_STATS_H_
