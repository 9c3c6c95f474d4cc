#include "exec/local_join.h"

#include <algorithm>
#include <unordered_map>

#include "exec/external_sorter.h"

namespace pjvm {

Result<std::vector<JoinedPair>> SortMergeJoinFragment(
    Node* node, const std::string& table, int inner_col,
    const std::vector<Row>& outer, int outer_col, int memory_pages,
    CostTracker* tracker, uint64_t txn_id) {
  TableFragment* frag = node->fragment(table);
  if (frag == nullptr) {
    return Status::NotFound("sort-merge: node " + std::to_string(node->id()) +
                            " has no fragment '" + table + "'");
  }
  // A scan reads the whole fragment: one shared fragment lock. The lock (which
  // may block) comes before the physical latch that covers the reads below.
  PJVM_RETURN_NOT_OK(node->AcquireTableShared(txn_id, table));
  NodeLatchGuard latch(*node, LatchMode::kShared);
  const LocalIndex* index = frag->FindIndex(inner_col);
  bool inner_sorted = index != nullptr && index->clustered;

  ExternalSorter sorter(memory_pages, frag->heap().rows_per_page());
  uint64_t inner_pages = frag->num_pages();
  uint64_t io = inner_sorted ? inner_pages : sorter.SortCostPages(inner_pages);
  tracker->ChargeIOPages(node->id(), io);

  // Execute the join with a hash table on the (in-memory) outer side; the
  // result is identical to a merge and the cost was charged above.
  std::unordered_map<Value, std::vector<const Row*>, ValueHash> outer_index;
  for (const Row& o : outer) outer_index[o[outer_col]].push_back(&o);

  std::vector<JoinedPair> out;
  frag->ForEach([&](LocalRowId, const Row& inner) {
    auto it = outer_index.find(inner[inner_col]);
    if (it != outer_index.end()) {
      for (const Row* o : it->second) {
        out.push_back(JoinedPair{*o, inner});
      }
    }
    return true;
  });
  // Deterministic output order: by outer tuple then inner key.
  return out;
}

}  // namespace pjvm
