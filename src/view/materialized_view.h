#ifndef PJVM_VIEW_MATERIALIZED_VIEW_H_
#define PJVM_VIEW_MATERIALIZED_VIEW_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/system.h"
#include "view/view_def.h"

namespace pjvm {

/// \brief The stored form of a join view: a distributed table (one fragment
/// per node) holding the view's output rows, partitioned per the view
/// definition (hash on the partitioning attribute, or round-robin when the
/// view "is not partitioned on an attribute" in the paper's terms).
class MaterializedView {
 public:
  /// Creates the view's backing table across the system. The table carries a
  /// non-clustered index on the partitioning attribute (the paper's model
  /// assumption 3) — unless `merged_layout` is set, in which case the view's
  /// merged co-clustered tree (view/merged_storage.h) is the key-ordered
  /// access path and the per-fragment index is skipped (content deletes stay
  /// O(1) through the content hash an indexless fragment keeps). The
  /// table starts empty; see ViewManager for backfill.
  static Result<MaterializedView> Create(ParallelSystem* sys, BoundView bound,
                                         bool merged_layout = false);

  const BoundView& bound() const { return bound_; }
  const std::string& table_name() const { return bound_.def().name; }
  TableId table_id() const { return table_id_; }

  /// Destination node of one output row.
  int DestinationOf(const Row& output_row);

  /// Applies one batch of output rows produced at `source_node`: routes each
  /// row through the interconnect to its home view node (one message per
  /// distinct destination, as in the paper's flows) and inserts or deletes
  /// there. `rows` are *output* rows (already projected). Deletions on a
  /// round-robin view search the nodes in order, charging one SEARCH per
  /// miss, since the row's location is not derivable from its content.
  Status ApplyOutputs(uint64_t txn, int source_node, std::vector<Row> rows,
                      bool is_delete, size_t* applied);

  /// All output rows of the view (test/inspection utility; uncharged).
  /// With `mvcc_reads` on, ScanAll reads every node at one commit epoch, so
  /// the result is never a torn mid-maintenance mixture.
  std::vector<Row> Contents() const { return sys_->ScanAll(table_name()); }
  size_t RowCount() const { return sys_->RowCount(table_name()); }

  /// Mirror callback for the merged layout: invoked once per applied view
  /// row — (txn, destination node, output row, is_delete) — right where the
  /// heap changes, so the merged tree tracks the heap within the same
  /// transaction. Unset for the separate layout.
  using MergedHook = std::function<Status(uint64_t, int, const Row&, bool)>;
  void set_merged_hook(MergedHook hook) { merged_hook_ = std::move(hook); }

  /// Escrow routing callback for aggregate views (view/escrow.h): invoked
  /// per contribution row — (txn, destination node, contribution,
  /// is_delete) — before the eager fold. Returning true means the escrow
  /// journal applied the increment under a V lock and the eager
  /// probe/delete/insert must be skipped; false falls through to the eager
  /// path (which escrow has already X-locked when the contribution is a
  /// group birth/death edge). Unset when escrow is off.
  using EscrowHook = std::function<Result<bool>(uint64_t, int, const Row&, bool)>;
  void set_escrow_hook(EscrowHook hook) { escrow_hook_ = std::move(hook); }

 private:
  MaterializedView(ParallelSystem* sys, BoundView bound, TableId table_id)
      : sys_(sys), bound_(std::move(bound)), table_id_(table_id) {}

  /// Aggregate-view path of ApplyOutputs: folds contribution rows into the
  /// stored group rows ([group..., __count, aggregates...]), creating,
  /// updating, or removing groups as their counts move through zero.
  Status ApplyAggregateContributions(uint64_t txn, int source_node,
                                     std::vector<Row> rows, bool is_delete,
                                     size_t* applied);

  ParallelSystem* sys_;
  BoundView bound_;
  TableId table_id_;
  MergedHook merged_hook_;
  EscrowHook escrow_hook_;
};

/// \brief Recomputes the view's output rows from the current base tables by
/// a from-scratch multi-way hash join (bag semantics).
///
/// This is the correctness oracle for every incremental maintenance method,
/// and the backfill source when a view is first registered. It reads
/// fragments directly and charges no costs.
Result<std::vector<Row>> EvaluateViewFromScratch(ParallelSystem* sys,
                                                 const BoundView& bound);

}  // namespace pjvm

#endif  // PJVM_VIEW_MATERIALIZED_VIEW_H_
