#include "view/aux_relation_maintainer.h"

#include "view/merged_storage.h"

namespace pjvm {

Status AuxRelationMaintainer::ProcessSign(uint64_t txn, int updated_base,
                                          const MaintenancePlan& plan,
                                          const std::vector<Row>& rows,
                                          const std::vector<GlobalRowId>& gids,
                                          bool is_delete,
                                          MaintenanceReport* report) {
  // If the updated base has an AR on the first step's join attribute (or is
  // itself partitioned on it), the structure-maintenance phase already
  // shipped each delta tuple to that attribute's hash home; seed there so
  // the first probe is local, matching the paper's single "send to node j".
  int colocate_col = -1;
  if (!plan.steps.empty()) {
    const PlanStep& first = plan.steps.front();
    const TableDef& updated_def = bound().base_def(updated_base);
    bool has_structure =
        resolver_
            ->ArFor(updated_def.name, first.source_col,
                    bound().needed_cols(updated_base),
                    bound().base_preds(updated_base))
            .ok() ||
        (updated_def.partition.is_hash() &&
         updated_def.PartitionColumn() == first.source_col);
    if (has_structure) colocate_col = first.source_col;
  }

  PJVM_ASSIGN_OR_RETURN(std::vector<Partial> partials,
                        SeedPartials(updated_base, rows, gids, colocate_col));
  MergedViewStorage* merged = resolver_->MergedFor(view_->table_name());
  for (const PlanStep& step : plan.steps) {
    const TableDef& target_def = bound().base_def(step.target_base);
    ProbeTarget target;
    if (merged != nullptr &&
        merged->CoversBase(step.target_base, step.target_col)) {
      // Merged co-clustered layout: a step targeting a cluster member probes
      // the view's merged tree — one range descent instead of an AR index
      // search per tuple. Non-member targets keep the AR path below.
      target.table = merged->lock_table();
      target.merged = merged;
    } else if (target_def.partition.is_hash() &&
               target_def.PartitionColumn() == step.target_col) {
      // "If some base relation is partitioned on the join attribute, the
      // auxiliary relation for that base relation is unnecessary."
      target = BaseProbeTarget(step);
    } else {
      PJVM_ASSIGN_OR_RETURN(
          ArAccess ar,
          resolver_->ArFor(target_def.name, step.target_col,
                           bound().needed_cols(step.target_base),
                           bound().base_preds(step.target_base)));
      target.table = ar.table;
      target.probe_col = ar.probe_col;
      target.needed_map = ar.needed_pos;
      target.preds = ar.residual_preds;
    }
    PJVM_ASSIGN_OR_RETURN(partials,
                          RoutedStep(txn, step, target, partials, report));
    if (partials.empty()) return Status::OK();
  }
  return EmitToView(txn, partials, is_delete, report);
}

}  // namespace pjvm
