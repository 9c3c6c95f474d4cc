#ifndef PJVM_VIEW_MAINTAINER_H_
#define PJVM_VIEW_MAINTAINER_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/system.h"
#include "exec/local_join.h"
#include "storage/row_id.h"
#include "view/materialized_view.h"
#include "view/planner.h"
#include "view/view_def.h"

namespace pjvm {

/// \brief The three maintenance methods the paper compares.
enum class MaintenanceMethod {
  kNaive = 0,
  kAuxRelation,
  kGlobalIndex,
};

const char* MaintenanceMethodToString(MaintenanceMethod method);

/// \brief A batch of changes to one base table, expressed as full base rows.
///
/// `insert_gids` / `delete_gids` parallel the row vectors and carry each
/// row's (node, local rid) — the node where the row physically arrived or
/// lived. They are filled by ViewManager when it applies the base update;
/// they seed the maintenance dataflow (the paper's "node i") and identify
/// global-index entries. Updates are normalized to delete+insert pairs by
/// ViewManager before reaching a maintainer.
struct DeltaBatch {
  std::string table;
  std::vector<Row> inserts;
  std::vector<GlobalRowId> insert_gids;
  std::vector<Row> deletes;
  std::vector<GlobalRowId> delete_gids;
  std::vector<std::pair<Row, Row>> updates;  // (old, new); consumed by ViewManager.

  static DeltaBatch Inserts(std::string table, std::vector<Row> rows) {
    DeltaBatch d;
    d.table = std::move(table);
    d.inserts = std::move(rows);
    return d;
  }
  static DeltaBatch Deletes(std::string table, std::vector<Row> rows) {
    DeltaBatch d;
    d.table = std::move(table);
    d.deletes = std::move(rows);
    return d;
  }
};

/// \brief What one maintenance invocation did (counts only; I/O totals come
/// from CostTracker snapshots around the call).
struct MaintenanceReport {
  size_t view_rows_inserted = 0;
  size_t view_rows_deleted = 0;
  /// Writes to auxiliary relations / global indexes for this delta.
  size_t structure_writes = 0;
  /// Join-side index probes issued.
  size_t probes = 0;
  /// Human-readable notes (chosen join algorithm per step etc.).
  std::string notes;

  MaintenanceReport& operator+=(const MaintenanceReport& o) {
    view_rows_inserted += o.view_rows_inserted;
    view_rows_deleted += o.view_rows_deleted;
    structure_writes += o.structure_writes;
    probes += o.probes;
    if (!o.notes.empty()) {
      if (!notes.empty()) notes += "; ";
      notes += o.notes;
    }
    return *this;
  }
};

class MergedViewStorage;
class StructureRegistry;

/// \brief Maintains one view by one of the paper's three methods.
///
/// All three run the same delta dataflow: seed partial tuples from the
/// delta, join them one plan step at a time, and ship the finished tuples to
/// the view. They differ only in the structure a step reaches, which StepFor
/// alone decides: the base table (naive), the auxiliary relation at the
/// key's home (AR), or the global index and then the K owning nodes (GI).
class Maintainer {
 public:
  /// `structures` is the shared AR/GI registry; `merged` is the view's
  /// merged co-clustered storage, or nullptr for the separate layout (see
  /// view/merged_storage.h).
  Maintainer(ParallelSystem* sys, MaterializedView* view,
             MaintenanceMethod method, const StructureRegistry* structures,
             MergedViewStorage* merged)
      : sys_(sys),
        view_(view),
        method_(method),
        structures_(structures),
        merged_(merged) {}

  MaintenanceMethod method() const { return method_; }

  /// Computes and applies the view change for `delta` (whose base update has
  /// already been applied, and whose structures — ARs/GIs — have already
  /// been updated by ViewManager). `updated_base` is the index of the
  /// delta's table within the view definition.
  Result<MaintenanceReport> ApplyDelta(uint64_t txn, int updated_base,
                                       const DeltaBatch& delta);

  /// Batch-fold mode (heavy/light deferred folds, view/heavy_light.h): the
  /// delta is a buffered batch dominated by a few hot keys, so probe results
  /// are memoized per distinct key within a step — one index probe (and one
  /// GI rid-list fetch) serves every duplicate. Off by default; eager
  /// maintenance keeps its per-tuple cost accounting bit-exact.
  void set_fold_mode(bool on) { fold_mode_ = on; }

 private:
  /// A partial join result: a working row with the bases joined so far
  /// filled in, currently materialized at `node`.
  struct Partial {
    Row working;
    int node;
  };

  /// Delta-aware plan: first-step candidates are scored by the actual key
  /// values in `rows` (exact per-key match counts where an index exists),
  /// so skewed batches order their joins by what they will really touch.
  Result<MaintenancePlan> PlanForRows(int updated_base,
                                      const std::vector<Row>& rows) const;

  /// Builds seed partials from delta rows: applies the updated base's
  /// selections, projects to needed columns, and places each seed at its
  /// arrival node (`gids`), or — when `colocate_col` >= 0 — at the hash home
  /// of that column, reflecting that the structure-maintenance ship already
  /// moved the tuple there (AR/GI methods).
  Result<std::vector<Partial>> SeedPartials(int updated_base,
                                            const std::vector<Row>& rows,
                                            const std::vector<GlobalRowId>& gids,
                                            int colocate_col) const;

  /// True iff all of the step's residual edges hold on `working`.
  Result<bool> ResidualOk(const PlanStep& step, const Row& working) const;

  /// Extends a partial's `working` row with one probed target tuple (already
  /// in needed form), runs residual checks, and appends to `out` at node
  /// `at_node`. This is the one copy a step makes of each output row.
  Status Extend(const PlanStep& step, const Row& working,
                const Row& target_needed, int at_node,
                std::vector<Partial>* out) const;

  /// Routes finished partials to the view (insert or delete).
  Status EmitToView(uint64_t txn, const std::vector<Partial>& completed,
                    bool is_delete, MaintenanceReport* report);

  /// Average fanout of (base, full column) from table statistics (see
  /// ParallelSystem::EstimateFanout).
  double EstimateFanout(int base, int full_col) const;

  /// Processes one sign of a delta: seeds the partials, runs the plan's
  /// steps over them (StepFor) and emits the finished tuples to the view.
  Status ProcessSign(uint64_t txn, int updated_base,
                     const MaintenancePlan& plan, const std::vector<Row>& rows,
                     const std::vector<GlobalRowId>& gids, bool is_delete,
                     MaintenanceReport* report);

  /// Runs one plan step over `in`: the only place the method decides which
  /// structure the step probes and how partials reach it.
  Result<std::vector<Partial>> StepFor(uint64_t txn, const PlanStep& step,
                                       const std::vector<Partial>& in,
                                       MaintenanceReport* report);

  /// Describes what a plan step probes at a node: which table, which of its
  /// columns, and how a probed row maps to the target base's needed tuple.
  struct ProbeTarget {
    /// The probed table's name (hop bytes, trace details) and id.
    std::string table;
    TableId id = kNoTable;
    /// Column to probe, in the probed table's schema.
    int probe_col = -1;
    /// Position in the probed row of each needed column of the target base
    /// (full base rows: the needed column indices themselves; AR rows: the
    /// AR's column positions).
    std::vector<int> needed_map;
    /// Selection predicates to apply to probed rows; column indices are
    /// positions within the probed row.
    std::vector<BoundPred> preds;
    /// When set, the step probes the view's merged co-clustered tree (named
    /// `table`, no id) instead: one range descent per (txn, node, key), every
    /// further in-range operation free, zero per-row fetches.
    MergedViewStorage* merged = nullptr;
  };

  /// ProbeTarget for the raw base table of `step.target_base`.
  ProbeTarget BaseProbeTarget(const PlanStep& step) const;

  /// Joins `group` (the working rows of partials already located at `node`)
  /// against the probe target's fragment there, choosing index-nested-loops
  /// vs sort-merge by cost (`per_tuple_index_io` is the estimated index I/O
  /// per outer tuple at this node). Extends matches into `out` at `node`.
  /// `group` and `keys` (the group grouped by key, when the caller shares
  /// one grouping across a step's nodes; null to group here if the
  /// sort-merge join runs) are only read.
  Status ProbeGroupAtNode(uint64_t txn, const PlanStep& step,
                          const ProbeTarget& target, int node,
                          std::span<const Row* const> group, int key_idx,
                          const OuterKeyGroups* keys,
                          double per_tuple_index_io, MaintenanceReport* report,
                          std::vector<Partial>* out);

  /// The naive method's all-node step: broadcasts every partial to all L
  /// nodes (L SENDs each) and joins at every node. Also the large-batch
  /// fallback of the global-index method.
  Result<std::vector<Partial>> BroadcastStep(uint64_t txn, const PlanStep& step,
                                             const std::vector<Partial>& in,
                                             MaintenanceReport* report);

  /// Single-node step: routes each partial to the hash home of its key (one
  /// SEND per partial unless already there) and joins there against
  /// `target`. Used for co-partitioned bases (naive case 1), auxiliary
  /// relations and the merged co-clustered layout.
  Result<std::vector<Partial>> RoutedStep(uint64_t txn, const PlanStep& step,
                                          const ProbeTarget& target,
                                          const std::vector<Partial>& in,
                                          MaintenanceReport* report);

  /// The global index method's step (view/global_index_step.cc): routes each
  /// partial to the GI home of its key, looks up the global row ids there,
  /// and fans the probe out to the K owning nodes.
  Result<std::vector<Partial>> GlobalIndexStep(uint64_t txn,
                                               const PlanStep& step,
                                               TableId gi_table,
                                               const std::vector<Partial>& in,
                                               MaintenanceReport* report);

  /// Ships each partial to the hash home of its working column `key_idx`
  /// (one SEND of a `table` hop unless it is already there). Returns, per
  /// node, the indices of the partials now there, in input order.
  Result<std::vector<std::vector<size_t>>> RouteToKeyHome(
      const std::vector<Partial>& in, int key_idx, const std::string& table);

  /// Work one node does for a step: extends its matches into `out` at that
  /// node and counts its probes in `report`.
  using NodeProbe = std::function<Status(int node, MaintenanceReport* report,
                                         std::vector<Partial>* out)>;

  /// Runs `probe` for each of `nodes` through the executor (the first on the
  /// caller, the rest on their workers) and merges the outputs and reports
  /// in the listed order.
  Result<std::vector<Partial>> ProbeOnNodes(const std::vector<int>& nodes,
                                            const NodeProbe& probe,
                                            MaintenanceReport* report);

  const BoundView& bound() const { return view_->bound(); }

  ParallelSystem* sys_;
  MaterializedView* view_;
  const MaintenanceMethod method_;
  const StructureRegistry* structures_;
  MergedViewStorage* merged_;
  bool fold_mode_ = false;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_MAINTAINER_H_
