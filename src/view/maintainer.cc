#include "view/maintainer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <unordered_map>

#include "exec/join_chooser.h"
#include "net/network.h"
#include "obs/trace.h"
#include "view/merged_storage.h"
#include "view/structure_registry.h"

namespace pjvm {

const char* MaintenanceMethodToString(MaintenanceMethod method) {
  switch (method) {
    case MaintenanceMethod::kNaive:
      return "NAIVE";
    case MaintenanceMethod::kAuxRelation:
      return "AUX_RELATION";
    case MaintenanceMethod::kGlobalIndex:
      return "GLOBAL_INDEX";
  }
  return "UNKNOWN";
}

Result<MaintenanceReport> Maintainer::ApplyDelta(uint64_t txn, int updated_base,
                                                 const DeltaBatch& delta) {
  MaintenanceReport report;
  if (delta.inserts.empty() && delta.deletes.empty()) return report;
  // Deletions first: an update normalized to (delete old, insert new) must
  // remove the old derivations before adding the new ones. Each sign gets a
  // plan scored by its own key values.
  if (!delta.deletes.empty()) {
    PJVM_ASSIGN_OR_RETURN(MaintenancePlan plan,
                          PlanForRows(updated_base, delta.deletes));
    PJVM_RETURN_NOT_OK(ProcessSign(txn, updated_base, plan, delta.deletes,
                                   delta.delete_gids, /*is_delete=*/true,
                                   &report));
  }
  if (!delta.inserts.empty()) {
    PJVM_ASSIGN_OR_RETURN(MaintenancePlan plan,
                          PlanForRows(updated_base, delta.inserts));
    PJVM_RETURN_NOT_OK(ProcessSign(txn, updated_base, plan, delta.inserts,
                                   delta.insert_gids, /*is_delete=*/false,
                                   &report));
  }
  return report;
}

Status Maintainer::ProcessSign(uint64_t txn, int updated_base,
                               const MaintenancePlan& plan,
                               const std::vector<Row>& rows,
                               const std::vector<GlobalRowId>& gids,
                               bool is_delete, MaintenanceReport* report) {
  // AR and GI: if the updated base has the method's structure on the first
  // step's join attribute (or is itself partitioned on it), the
  // structure-maintenance phase already shipped each delta tuple to that
  // attribute's hash home; seed there so the first probe is local, matching
  // the paper's single "send to node j". Naive seeds at the arrival node.
  int colocate_col = -1;
  if (method_ != MaintenanceMethod::kNaive && !plan.steps.empty()) {
    int col = plan.steps.front().source_col;
    const TableDef& def = bound().base_def(updated_base);
    if (def.PartitionedOn(col) || structures_->Has(method_, def.name, col)) {
      colocate_col = col;
    }
  }
  PJVM_ASSIGN_OR_RETURN(std::vector<Partial> partials,
                        SeedPartials(updated_base, rows, gids, colocate_col));
  for (const PlanStep& step : plan.steps) {
    PJVM_ASSIGN_OR_RETURN(partials, StepFor(txn, step, partials, report));
    if (partials.empty()) return Status::OK();
  }
  return EmitToView(txn, partials, is_delete, report);
}

Result<std::vector<Maintainer::Partial>> Maintainer::StepFor(
    uint64_t txn, const PlanStep& step, const std::vector<Partial>& in,
    MaintenanceReport* report) {
  const TableDef& target_def = bound().base_def(step.target_base);
  if (merged_ != nullptr &&
      merged_->CoversBase(step.target_base, step.target_col)) {
    // Merged co-clustered layout (AR views only): a step targeting a cluster
    // member probes the view's merged tree — one range descent instead of an
    // AR index search per tuple. Non-member targets take the paths below.
    ProbeTarget target;
    target.table = merged_->lock_table();
    target.merged = merged_;
    return RoutedStep(txn, step, target, in, report);
  }
  if (target_def.PartitionedOn(step.target_col)) {
    // The matching tuples live at one known node per key: naive's case 1,
    // and for AR/GI "if some base relation is partitioned on the join
    // attribute, the auxiliary relation for that base relation is
    // unnecessary".
    return RoutedStep(txn, step, BaseProbeTarget(step), in, report);
  }
  switch (method_) {
    case MaintenanceMethod::kNaive:
      // The naive method (Section 2.1.1), case 2: the matching tuples could
      // be anywhere, so each partial is broadcast to all L nodes — the
      // expensive all-node operation the other methods avoid. No extra
      // storage is used.
      return BroadcastStep(txn, step, in, report);
    case MaintenanceMethod::kAuxRelation: {
      // The auxiliary relation method (Section 2.1.2): the step probes the
      // target's AR — a selection/projection of the base re-partitioned on
      // the join attribute with a clustered index — so each partial travels
      // to exactly one node, the single-node operation that makes this the
      // cheapest method for small updates.
      PJVM_ASSIGN_OR_RETURN(
          ArAccess ar,
          structures_->Access(target_def.name, step.target_col,
                              bound().needed_cols(step.target_base),
                              bound().base_preds(step.target_base)));
      ProbeTarget target;
      target.table = ar.table;
      target.id = ar.id;
      target.probe_col = ar.probe_col;
      target.needed_map = ar.needed_pos;
      target.preds = ar.residual_preds;
      return RoutedStep(txn, step, target, in, report);
    }
    case MaintenanceMethod::kGlobalIndex: {
      // The global index method (Section 2.1.3): the target's global index
      // — a distributed table of (join-attribute value, global row ids)
      // entries partitioned on the value — tells which K <= min(N, L) nodes
      // hold matching tuples, and the partial plus its row ids goes to just
      // those nodes, which fetch the matches by row id and join. The fetches
      // cost one page per node when the base is clustered on the join
      // attribute ("distributed clustered") and one I/O per matching row
      // otherwise.
      PJVM_ASSIGN_OR_RETURN(
          TableId gi_table,
          structures_->GlobalIndex(target_def.name, step.target_col));
      // Large-batch crossover: when per-node scan beats the few-node index
      // plan, fall back to the broadcast sort-merge join (Figure 11's
      // plateau).
      const std::string& col_name =
          target_def.schema.column(step.target_col).name;
      bool dist_clustered = target_def.HasClusteredIndexOn(col_name);
      double fan = EstimateFanout(step.target_base, step.target_col);
      double k_nodes = std::min<double>(fan, sys_->num_nodes());
      double inner_pages_per_node =
          static_cast<double>(sys_->TablePages(target_def.name)) /
          sys_->num_nodes();
      double inl_per_node = static_cast<double>(in.size()) *
                            (1.0 + (dist_clustered ? k_nodes : fan)) /
                            sys_->num_nodes();
      double smj_per_node =
          dist_clustered
              ? inner_pages_per_node
              : inner_pages_per_node *
                    std::max(1.0,
                             std::ceil(std::log(std::max(inner_pages_per_node,
                                                         2.0)) /
                                       std::log(static_cast<double>(
                                           sys_->config().sort_memory_pages))));
      if (smj_per_node < inl_per_node) {
        return BroadcastStep(txn, step, in, report);
      }
      return GlobalIndexStep(txn, step, gi_table, in, report);
    }
  }
  return Status::InvalidArgument("maintainer: unknown method");
}

Result<MaintenancePlan> Maintainer::PlanForRows(
    int updated_base, const std::vector<Row>& rows) const {
  // With mvcc_reads on the estimates read the last committed snapshot, so
  // this transaction's own unpublished writes are invisible to them. That
  // only matters for a self-join view probing the table it just updated
  // (the estimate is then one row stale); plans for the paper's views are
  // unaffected.
  return PlanMaintenanceForDelta(
      bound(), updated_base, rows,
      [this](int base, int col) { return EstimateFanout(base, col); },
      [this](int base, int col, const Value& key) {
        return sys_->EstimateKeyFanout(bound().base_def(base).name, col, key);
      });
}

double Maintainer::EstimateFanout(int base, int full_col) const {
  return sys_->EstimateFanout(bound().base_def(base).name, full_col);
}

Result<std::vector<Maintainer::Partial>> Maintainer::SeedPartials(
    int updated_base, const std::vector<Row>& rows,
    const std::vector<GlobalRowId>& gids, int colocate_col) const {
  const TableDef& base_def = bound().base_def(updated_base);
  std::vector<Partial> seeds;
  seeds.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (!bound().RowPassesSelections(updated_base, row)) continue;
    Partial p;
    p.working.assign(bound().working_width(), Value{});
    Row part = bound().ProjectNeeded(updated_base, row);
    for (size_t j = 0; j < part.size(); ++j) {
      p.working[bound().needed_offset(updated_base) + j] = std::move(part[j]);
    }
    if (colocate_col >= 0) {
      p.node = sys_->HomeNodeForKey(row[colocate_col]);
    } else if (i < gids.size() && gids[i].node >= 0) {
      p.node = gids[i].node;
    } else if (base_def.partition.is_hash()) {
      p.node = sys_->HomeNodeForKey(row[base_def.PartitionColumn()]);
    } else {
      return Status::InvalidArgument(
          "maintainer: round-robin base '" + base_def.name +
          "' requires delta gids to locate arrival nodes");
    }
    seeds.push_back(std::move(p));
  }
  return seeds;
}

Result<bool> Maintainer::ResidualOk(const PlanStep& step,
                                    const Row& working) const {
  for (const BoundEdge& edge : step.residual) {
    PJVM_ASSIGN_OR_RETURN(int li,
                          bound().WorkingIndex(edge.left_base, edge.left_col));
    PJVM_ASSIGN_OR_RETURN(int ri,
                          bound().WorkingIndex(edge.right_base, edge.right_col));
    if (!(working[li] == working[ri])) return false;
  }
  return true;
}

Status Maintainer::Extend(const PlanStep& step, const Row& working,
                          const Row& target_needed, int at_node,
                          std::vector<Partial>* out) const {
  Partial extended;
  extended.working = working;
  for (size_t j = 0; j < target_needed.size(); ++j) {
    extended.working[bound().needed_offset(step.target_base) + j] =
        target_needed[j];
  }
  PJVM_ASSIGN_OR_RETURN(bool ok, ResidualOk(step, extended.working));
  if (!ok) return Status::OK();
  extended.node = at_node;
  out->push_back(std::move(extended));
  return Status::OK();
}

Maintainer::ProbeTarget Maintainer::BaseProbeTarget(const PlanStep& step) const {
  ProbeTarget target;
  target.table = bound().base_def(step.target_base).name;
  target.id = bound().base_def(step.target_base).id;
  target.probe_col = step.target_col;
  target.needed_map = bound().needed_cols(step.target_base);
  target.preds = bound().base_preds(step.target_base);
  return target;
}

Status Maintainer::ProbeGroupAtNode(uint64_t txn, const PlanStep& step,
                                    const ProbeTarget& target, int node,
                                    std::span<const Row* const> group,
                                    int key_idx, const OuterKeyGroups* keys,
                                    double per_tuple_index_io,
                                    MaintenanceReport* report,
                                    std::vector<Partial>* out) {
  if (group.empty()) return Status::OK();
  Node* n = sys_->node(node);
  // The whole probe reads the fragment directly (FindIndex, num_pages, and
  // the join itself); the latch is recursive, so the nested IndexProbe /
  // SortMergeJoinFragment latches on the same node are fine. Holding it
  // across the join also keeps the matched rows' pointers valid.
  NodeLatchGuard latch(*n, LatchMode::kShared);
  TableFragment* frag = n->fragment(target.id);
  if (frag == nullptr) {
    return Status::NotFound("maintenance: node " + std::to_string(node) +
                            " has no fragment '" + target.table + "'");
  }
  const LocalIndex* index = frag->FindIndex(target.probe_col);

  JoinChoiceInput choice_in;
  choice_in.outer_tuples = group.size();
  choice_in.per_tuple_index_io = per_tuple_index_io;
  choice_in.inner_pages = frag->num_pages();
  choice_in.inner_clustered = index != nullptr && index->clustered;
  choice_in.memory_pages = sys_->config().sort_memory_pages;
  JoinChoice choice = ChooseLocalJoin(choice_in);
  if (index == nullptr) {
    // No index: a scan-based join is the only option.
    choice.algorithm = JoinAlgorithm::kSortMerge;
  }

  auto accept = [&](const Row& working, const Row& probed) -> Status {
    if (!RowPassesPreds(probed, target.preds)) return Status::OK();
    Row needed = ProjectRow(probed, target.needed_map);
    return Extend(step, working, needed, node, out);
  };

  if (choice.algorithm == JoinAlgorithm::kIndexNestedLoops) {
    // Fold mode: a deferred batch is dominated by a few hot keys, so one
    // probe per distinct key serves every duplicate (that amortization is
    // the point of deferring). Eager mode probes per tuple, unmemoized, so
    // its cost accounting is unchanged.
    std::unordered_map<Value, ProbeResult, ValueHash> memo;
    for (const Row* working : group) {
      const Value& key = (*working)[key_idx];
      const ProbeResult* probe = nullptr;
      ProbeResult fresh;
      if (fold_mode_) {
        auto [it, missing] = memo.try_emplace(key);
        if (missing) {
          PJVM_ASSIGN_OR_RETURN(
              it->second,
              n->IndexProbe(target.id, target.probe_col, key, txn));
          ++report->probes;
        }
        probe = &it->second;
      } else {
        PJVM_ASSIGN_OR_RETURN(
            fresh, n->IndexProbe(target.id, target.probe_col, key, txn));
        ++report->probes;
        probe = &fresh;
      }
      for (const Row& row : probe->rows) {
        PJVM_RETURN_NOT_OK(accept(*working, row));
      }
    }
  } else {
    OuterKeyGroups own_keys;
    if (keys == nullptr) {
      own_keys = GroupOuterKeys(group, key_idx);
      keys = &own_keys;
    }
    PJVM_ASSIGN_OR_RETURN(
        std::vector<LocalJoinMatch> matches,
        SortMergeJoinFragment(n, target.id, target.probe_col, *keys,
                              sys_->config().sort_memory_pages, &sys_->cost(),
                              txn));
    ++report->probes;
    for (const LocalJoinMatch& m : matches) {
      PJVM_RETURN_NOT_OK(accept(*group[m.outer], *m.inner));
    }
  }
  return Status::OK();
}

Result<std::vector<Maintainer::Partial>> Maintainer::BroadcastStep(
    uint64_t txn, const PlanStep& step, const std::vector<Partial>& in,
    MaintenanceReport* report) {
  if (in.empty()) return std::vector<Partial>{};
  ProbeTarget target = BaseProbeTarget(step);
  SpanGuard phase_span("broadcast_step", "phase", -1, nullptr,
                       MaintenanceMethodToString(method()));
  if (phase_span.active()) phase_span.set_detail(target.table);
  PJVM_ASSIGN_OR_RETURN(int key_idx,
                        bound().WorkingIndex(step.source_base, step.source_col));
  // Every partial is shipped to every node: the paper's L*SEND per tuple.
  for (const Partial& p : in) {
    PJVM_RETURN_NOT_OK(sys_->network().Broadcast(
        p.node, HopBytes(target.table, {&p.working, 1})));
  }
  const TableDef& tdef = bound().base_def(step.target_base);
  const std::string& col_name = tdef.schema.column(step.target_col).name;
  bool clustered = tdef.HasClusteredIndexOn(col_name);
  double fan = EstimateFanout(step.target_base, step.target_col);
  double per_tuple =
      1.0 + (clustered ? 0.0 : fan / static_cast<double>(sys_->num_nodes()));
  // One read-only group, and its grouping by key, serve all L node tasks.
  std::vector<const Row*> group;
  group.reserve(in.size());
  for (const Partial& p : in) group.push_back(&p.working);
  OuterKeyGroups keys = GroupOuterKeys(group, key_idx);
  std::vector<int> nodes(sys_->num_nodes());
  for (int node = 0; node < sys_->num_nodes(); ++node) nodes[node] = node;
  return ProbeOnNodes(
      nodes,
      [&](int node, MaintenanceReport* rep, std::vector<Partial>* out) {
        return ProbeGroupAtNode(txn, step, target, node, group, key_idx,
                                &keys, per_tuple, rep, out);
      },
      report);
}

Result<std::vector<Maintainer::Partial>> Maintainer::RoutedStep(
    uint64_t txn, const PlanStep& step, const ProbeTarget& target,
    const std::vector<Partial>& in, MaintenanceReport* report) {
  if (in.empty()) return std::vector<Partial>{};
  SpanGuard phase_span(
      target.merged != nullptr ? "merged_routed_step" : "routed_step", "phase",
      -1, nullptr, MaintenanceMethodToString(method()));
  if (phase_span.active()) phase_span.set_detail(target.table);
  PJVM_ASSIGN_OR_RETURN(int key_idx,
                        bound().WorkingIndex(step.source_base, step.source_col));
  PJVM_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> at_home,
                        RouteToKeyHome(in, key_idx, target.table));
  std::vector<int> dests;
  for (int n = 0; n < sys_->num_nodes(); ++n) {
    if (!at_home[n].empty()) dests.push_back(n);
  }
  // The probed structure is partitioned (and clustered) on the join
  // attribute: one search per tuple, no extra fetches. The merged tree holds
  // every cluster member's rows for the key at its home, so its probe never
  // leaves the key's range.
  return ProbeOnNodes(
      dests,
      [&](int dest, MaintenanceReport* rep, std::vector<Partial>* out) {
        std::vector<const Row*> group;
        group.reserve(at_home[dest].size());
        for (size_t i : at_home[dest]) group.push_back(&in[i].working);
        if (target.merged == nullptr) {
          return ProbeGroupAtNode(txn, step, target, dest, group, key_idx,
                                  /*keys=*/nullptr,
                                  /*per_tuple_index_io=*/1.0, rep, out);
        }
        for (const Row* working : group) {
          ++rep->probes;
          PJVM_RETURN_NOT_OK(target.merged->ProbeMember(
              txn, dest, step.target_base, step.target_col,
              (*working)[key_idx], [&](const Row& needed) {
                return Extend(step, *working, needed, dest, out);
              }));
        }
        return Status::OK();
      },
      report);
}

Result<std::vector<std::vector<size_t>>> Maintainer::RouteToKeyHome(
    const std::vector<Partial>& in, int key_idx, const std::string& table) {
  // Ships stay on the caller thread, so their SEND charges accrue to the
  // producing nodes in batch order.
  std::vector<std::vector<size_t>> at_home(sys_->num_nodes());
  for (size_t i = 0; i < in.size(); ++i) {
    const Partial& p = in[i];
    int home = sys_->HomeNodeForKey(p.working[key_idx]);
    if (home != p.node) {
      PJVM_RETURN_NOT_OK(sys_->network().Send(
          p.node, home, HopBytes(table, {&p.working, 1})));
    }
    at_home[home].push_back(i);
  }
  return at_home;
}

Result<std::vector<Maintainer::Partial>> Maintainer::ProbeOnNodes(
    const std::vector<int>& nodes, const NodeProbe& probe,
    MaintenanceReport* report) {
  // Outputs and probe counts land in per-node buffers and merge in the
  // listed order, so the result is identical to a sequential node loop.
  std::vector<std::vector<Partial>> node_out(sys_->num_nodes());
  std::vector<MaintenanceReport> node_rep(sys_->num_nodes());
  PJVM_RETURN_NOT_OK(sys_->executor().RunOnNodes(nodes, [&](int node) {
    SpanGuard span("probe_node", "task", node, &sys_->cost(),
                   MaintenanceMethodToString(method()));
    return probe(node, &node_rep[node], &node_out[node]);
  }));
  std::vector<Partial> out;
  for (int node : nodes) {
    *report += node_rep[node];
    out.insert(out.end(), std::make_move_iterator(node_out[node].begin()),
               std::make_move_iterator(node_out[node].end()));
  }
  return out;
}

Status Maintainer::EmitToView(uint64_t txn,
                              const std::vector<Partial>& completed,
                              bool is_delete, MaintenanceReport* report) {
  // Group by producing node: one routing batch per producer, matching the
  // paper's "the join tuples are sent to node k" per generating node.
  std::map<int, std::vector<Row>> by_producer;
  for (const Partial& p : completed) {
    by_producer[p.node].push_back(bound().OutputRow(p.working));
  }
  for (auto& [producer, rows] : by_producer) {
    size_t applied = 0;
    PJVM_RETURN_NOT_OK(
        view_->ApplyOutputs(txn, producer, std::move(rows), is_delete, &applied));
    if (is_delete) {
      report->view_rows_deleted += applied;
    } else {
      report->view_rows_inserted += applied;
    }
  }
  return Status::OK();
}

}  // namespace pjvm
