#include "exec/external_sorter.h"

#include <algorithm>
#include <cmath>

namespace pjvm {

uint64_t SortPasses(uint64_t pages, int memory_pages) {
  if (pages <= 1) return 1;
  // ceil(log_M(pages)), at least one pass. This matches the paper's
  // |B| log_M |B| sorting cost with the log rounded to whole passes.
  double raw = std::log(static_cast<double>(pages)) /
               std::log(static_cast<double>(memory_pages));
  uint64_t passes = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  return std::max<uint64_t>(passes, 1);
}

uint64_t ExternalSorter::SortCostPages(uint64_t pages) const {
  return pages * SortPasses(pages, memory_pages_);
}

uint64_t ExternalSorter::Sort(std::vector<Row>* rows, int key_col) const {
  std::stable_sort(rows->begin(), rows->end(),
                   [key_col](const Row& a, const Row& b) {
                     return a[key_col] < b[key_col];
                   });
  return SortCostPages(PagesFor(rows->size()));
}

}  // namespace pjvm
