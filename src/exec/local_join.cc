#include "exec/local_join.h"

#include <algorithm>

#include "exec/external_sorter.h"

namespace pjvm {

OuterKeyGroups GroupOuterKeys(std::span<const Row* const> outer,
                              int outer_col) {
  OuterKeyGroups by_key;
  for (size_t i = 0; i < outer.size(); ++i) {
    by_key[(*outer[i])[outer_col]].push_back(static_cast<uint32_t>(i));
  }
  return by_key;
}

Result<std::vector<LocalJoinMatch>> SortMergeJoinFragment(
    Node* node, TableId table, int inner_col,
    const OuterKeyGroups& outer, int memory_pages, CostTracker* tracker,
    uint64_t txn_id) {
  TableFragment* frag = node->fragment(table);
  if (frag == nullptr) {
    return Status::NotFound("sort-merge: node " + std::to_string(node->id()) +
                            " has no fragment of table " +
                            std::to_string(table));
  }
  // The join reads the whole fragment: one shared fragment lock. The lock
  // (which may block) comes before the physical latch that covers the reads
  // below.
  PJVM_RETURN_NOT_OK(node->AcquireTableShared(txn_id, table));
  NodeLatchGuard latch(*node, LatchMode::kShared);
  const LocalIndex* index = frag->FindIndex(inner_col);
  bool inner_sorted = index != nullptr && index->clustered;

  ExternalSorter sorter(memory_pages, frag->heap().rows_per_page());
  uint64_t inner_pages = frag->num_pages();
  uint64_t io = inner_sorted ? inner_pages : sorter.SortCostPages(inner_pages);
  tracker->ChargeIOPages(node->id(), io);

  // Execute the join; the result is identical to a merge and the cost was
  // charged above.
  std::vector<LocalJoinMatch> out;
  if (index != nullptr) {
    // One lookup per distinct key, then the scan's (lrid, outer) order. Only
    // a key of the column's type can be equal to a stored value (and the
    // tree's ordering aborts on a mixed-type comparison).
    ValueType col_type = frag->schema().column(inner_col).type;
    for (const auto& [key, positions] : outer) {
      if (key.type() != col_type) continue;
      const auto* rids = index->tree.Find(key);
      if (rids == nullptr) continue;
      for (LocalRowId rid : *rids) {
        const Row* inner = frag->Get(rid);
        for (uint32_t pos : positions) out.push_back({pos, rid, inner});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const LocalJoinMatch& a, const LocalJoinMatch& b) {
                return a.inner_rid != b.inner_rid ? a.inner_rid < b.inner_rid
                                                  : a.outer < b.outer;
              });
  } else {
    frag->ForEach([&](LocalRowId rid, const Row& inner) {
      auto it = outer.find(inner[inner_col]);
      if (it != outer.end()) {
        for (uint32_t pos : it->second) out.push_back({pos, rid, &inner});
      }
      return true;
    });
  }
  return out;
}

}  // namespace pjvm
