#ifndef PJVM_EXEC_LOCAL_JOIN_H_
#define PJVM_EXEC_LOCAL_JOIN_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "engine/node.h"

namespace pjvm {

/// \brief One match produced by a local join: an outer tuple's position (as
/// grouped by GroupOuterKeys) and the fragment (inner) row it joins with.
struct LocalJoinMatch {
  uint32_t outer;
  LocalRowId inner_rid;
  /// Points into the fragment's heap; see SortMergeJoinFragment for how long
  /// it stays valid.
  const Row* inner;
};

/// \brief The outer side of a local join grouped by join key: each distinct
/// key with the ascending positions of the outer tuples that carry it.
/// Read-only once built, so one grouping can serve every node of a step.
using OuterKeyGroups =
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash>;

/// Groups `outer` by column `outer_col`. Copies the keys, not the rows.
OuterKeyGroups GroupOuterKeys(std::span<const Row* const> outer,
                              int outer_col);

/// \brief Joins the outer tuples grouped in `outer` against the local
/// fragment of `table` at `node` (on its `inner_col`) as the paper's
/// sort-merge join under `memory_pages` of sort memory.
///
/// Cost model (matching the paper's Section 3.1.2): the time is dominated by
/// the inner fragment — a scan (|B_i| page I/Os) when the fragment is
/// clustered on `inner_col`, or a sort (|B_i| * ceil(log_M |B_i|)) when not.
/// The outer side is assumed to fit in memory (the paper's assumption 3).
/// Pages are charged to `node` in `tracker`, and the fragment is S-locked for
/// `txn_id`, whichever way the join executes.
///
/// Execution is decoupled from that charge: when the fragment has an index
/// on `inner_col`, each distinct outer key is looked up in it once, so the
/// work is proportional to the delta; otherwise the heap is scanned.
///
/// Contract:
///  - Matches are ordered by (inner_rid, outer) — the order a heap scan
///    produces — whichever path runs, so downstream row order, lrids and
///    fingerprints do not depend on which indexes exist.
///  - An outer key whose type differs from the column's matches nothing.
///  - `inner` pointers are valid only while the caller holds `node`'s latch
///    (NodeLatchGuard, shared suffices) across this call and every use of the
///    result; any write to the fragment invalidates them.
Result<std::vector<LocalJoinMatch>> SortMergeJoinFragment(
    Node* node, TableId table, int inner_col,
    const OuterKeyGroups& outer, int memory_pages, CostTracker* tracker,
    uint64_t txn_id = kAutoCommitTxnId);

}  // namespace pjvm

#endif  // PJVM_EXEC_LOCAL_JOIN_H_
