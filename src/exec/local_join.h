#ifndef PJVM_EXEC_LOCAL_JOIN_H_
#define PJVM_EXEC_LOCAL_JOIN_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "engine/node.h"

namespace pjvm {

/// \brief One match produced by a local join: the probing (outer) tuple
/// paired with a fragment (inner) tuple.
struct JoinedPair {
  Row outer;
  Row inner;
};

/// \brief Joins `outer` tuples against the local fragment of `table` at
/// `node` with a sort-merge join under `memory_pages` of sort memory.
///
/// Cost model (matching the paper's Section 3.1.2): the time is dominated by
/// the inner fragment — a scan (|B_i| page I/Os) when the fragment is
/// clustered on `inner_col`, or a sort (|B_i| * ceil(log_M |B_i|)) when not.
/// The outer side is assumed to fit in memory (the paper's assumption 3).
/// Pages are charged to `node` in `tracker`.
Result<std::vector<JoinedPair>> SortMergeJoinFragment(
    Node* node, const std::string& table, int inner_col,
    const std::vector<Row>& outer, int outer_col, int memory_pages,
    CostTracker* tracker, uint64_t txn_id = kAutoCommitTxnId);

}  // namespace pjvm

#endif  // PJVM_EXEC_LOCAL_JOIN_H_
