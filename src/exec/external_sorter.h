#ifndef PJVM_EXEC_EXTERNAL_SORTER_H_
#define PJVM_EXEC_EXTERNAL_SORTER_H_

#include <cstdint>
#include <vector>

#include "common/row.h"

namespace pjvm {

/// Number of passes over the data to sort `pages` pages with `memory_pages`
/// pages of memory: ceil(log_M pages), and at least 1 (fitting in memory is
/// still one read), matching the paper's convention that sorting costs
/// pages * ceil(log_M pages) >= pages.
uint64_t SortPasses(uint64_t pages, int memory_pages);

/// \brief Sorts rows by one key column under a memory budget of M pages,
/// reporting the page I/O a disk-based external sort would incur.
///
/// The data itself is sorted in memory (this is a simulator), but the cost
/// is the classic multiway-merge formula the paper's model uses:
/// a dataset of P pages with M pages of memory needs ceil(log_M(P)) passes
/// over the data when P > M, and the paper charges |B| * log_M |B| page
/// I/Os for sorting and |B| for a scan of already-sorted data.
class ExternalSorter {
 public:
  ExternalSorter(int memory_pages, int rows_per_page)
      : memory_pages_(memory_pages), rows_per_page_(rows_per_page) {}

  /// Page I/Os charged to sort `pages` pages: pages * SortPasses(pages, M).
  uint64_t SortCostPages(uint64_t pages) const;

  /// Sorts rows by `key_col` and returns the charged page I/Os for a dataset
  /// of the rows' size.
  uint64_t Sort(std::vector<Row>* rows, int key_col) const;

  uint64_t PagesFor(size_t row_count) const {
    return (row_count + rows_per_page_ - 1) / rows_per_page_;
  }

  int memory_pages() const { return memory_pages_; }
  int rows_per_page() const { return rows_per_page_; }

 private:
  int memory_pages_;
  int rows_per_page_;
};

}  // namespace pjvm

#endif  // PJVM_EXEC_EXTERNAL_SORTER_H_
