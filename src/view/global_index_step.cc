#include "view/maintainer.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <unordered_map>

#include "net/network.h"
#include "obs/trace.h"

namespace pjvm {

namespace {

/// Columns of every global-index table: (key, node, lrid).
constexpr int kGiKeyCol = 0;
constexpr int kGiNodeCol = 1;
constexpr int kGiLridCol = 2;

}  // namespace

Result<std::vector<Maintainer::Partial>> Maintainer::GlobalIndexStep(
    uint64_t txn, const PlanStep& step, TableId gi_table,
    const std::vector<Partial>& in, MaintenanceReport* report) {
  std::vector<Partial> out;
  const std::string& gi_name = sys_->catalog().Find(gi_table)->name;
  PJVM_ASSIGN_OR_RETURN(int key_idx,
                        bound().WorkingIndex(step.source_base, step.source_col));
  const TableDef& target_def = bound().base_def(step.target_base);
  const std::string& col_name = target_def.schema.column(step.target_col).name;
  bool dist_clustered = target_def.HasClusteredIndexOn(col_name);

  // Phase 0 (coordinator): route each partial to its key's global-index home
  // node.
  PJVM_ASSIGN_OR_RETURN(std::vector<std::vector<size_t>> at_home,
                        RouteToKeyHome(in, key_idx, gi_name));

  // A pending remote fetch: partial `partial_idx` matched `rids` at `owner`.
  struct FetchWork {
    size_t partial_idx = 0;
    int owner = -1;
    std::vector<LocalRowId> rids;
    std::vector<Partial> out;
  };

  // Phase 1: every involved home node probes its global-index fragment on its
  // own worker (the paper's few-node property: only the homes of the delta's
  // key values participate), forwards each rid list to the owning node, and
  // records one FetchWork per (partial, owner).
  std::vector<int> homes;
  for (int n = 0; n < sys_->num_nodes(); ++n) {
    if (!at_home[n].empty()) homes.push_back(n);
  }
  std::vector<std::vector<FetchWork>> home_work(sys_->num_nodes());
  std::vector<MaintenanceReport> home_rep(sys_->num_nodes());
  {
  SpanGuard lookup_span("gi_lookup", "phase", -1, nullptr,
                        MaintenanceMethodToString(method()));
  if (lookup_span.active()) lookup_span.set_detail(gi_name);
  PJVM_RETURN_NOT_OK(
      sys_->executor().RunOnNodes(homes, [&](int gi_home) -> Status {
        SpanGuard span("gi_probe_node", "task", gi_home, &sys_->cost(),
                       MaintenanceMethodToString(method()));
        // Fold mode (heavy/light deferred folds): the batch repeats a few
        // hot keys, so the GI rid-list lookup is memoized per distinct key —
        // one SEARCH serves every duplicate. Eager mode probes per tuple.
        std::unordered_map<Value, std::map<int, std::vector<LocalRowId>>,
                           ValueHash>
            memo;
        for (size_t i : at_home[gi_home]) {
          const Partial& p = in[i];
          const Value& key = p.working[key_idx];
          std::map<int, std::vector<LocalRowId>>* grouped = nullptr;
          std::map<int, std::vector<LocalRowId>> rids_by_node;
          auto it = fold_mode_ ? memo.find(key) : memo.end();
          if (it != memo.end()) {
            grouped = &it->second;
          } else {
            // One SEARCH in the (clustered-on-key) global index fragment.
            PJVM_ASSIGN_OR_RETURN(
                ProbeResult entries,
                sys_->node(gi_home)->IndexProbe(gi_table, kGiKeyCol, key, txn));
            ++home_rep[gi_home].probes;
            // Group the matching global row ids by owning node — the paper's
            // K nodes.
            for (const Row& entry : entries.rows) {
              rids_by_node[static_cast<int>(entry[kGiNodeCol].AsInt64())]
                  .push_back(
                      static_cast<LocalRowId>(entry[kGiLridCol].AsInt64()));
            }
            grouped = fold_mode_
                          ? &memo.emplace(key, std::move(rids_by_node))
                                 .first->second
                          : &rids_by_node;
          }
          for (auto& [owner, rids] : *grouped) {
            // "With the global row ids of those tuples residing at that node,
            // the tuple is sent there."
            PJVM_RETURN_NOT_OK(sys_->network().Send(
                gi_home, owner,
                HopBytes(target_def.name, {&p.working, 1}, rids.size())));
            // The memoized rid lists are shared by later duplicates of the
            // key, so fold mode copies them into the FetchWork.
            home_work[gi_home].push_back(FetchWork{
                i, owner, fold_mode_ ? rids : std::move(rids), {}});
          }
        }
        return Status::OK();
      }));
  }

  // Deterministic output order: the sequential implementation emitted per
  // partial (batch order), then per owner ascending within a partial.
  std::vector<FetchWork*> works;
  for (int n : homes) {
    report->probes += home_rep[n].probes;
    for (FetchWork& w : home_work[n]) works.push_back(&w);
  }
  std::sort(works.begin(), works.end(),
            [](const FetchWork* a, const FetchWork* b) {
              return std::tie(a->partial_idx, a->owner) <
                     std::tie(b->partial_idx, b->owner);
            });
  std::vector<std::vector<FetchWork*>> by_owner(sys_->num_nodes());
  for (FetchWork* w : works) by_owner[w->owner].push_back(w);
  std::vector<int> owners;
  for (int n = 0; n < sys_->num_nodes(); ++n) {
    if (!by_owner[n].empty()) owners.push_back(n);
  }

  // Phase 2: every owning node fetches its rid lists on its own worker.
  SpanGuard fetch_span("gi_fetch", "phase", -1, nullptr,
                       MaintenanceMethodToString(method()));
  if (fetch_span.active()) fetch_span.set_detail(target_def.name);
  PJVM_RETURN_NOT_OK(
      sys_->executor().RunOnNodes(owners, [&](int owner) -> Status {
        SpanGuard span("gi_fetch_node", "task", owner, &sys_->cost(),
                       MaintenanceMethodToString(method()));
        // The fetches read the heap directly, racing client writes to the
        // same node: hold its latch shared, as ProbeGroupAtNode does.
        Node* n = sys_->node(owner);
        NodeLatchGuard latch(*n, LatchMode::kShared);
        TableFragment* frag = n->fragment(target_def.id);
        if (frag == nullptr) {
          return Status::NotFound("GI step: missing fragment '" +
                                  target_def.name + "'");
        }
        // Fold mode: duplicates of a key fetch the same rid list, so the
        // selected-and-projected target tuples are memoized per key — the
        // heap FETCHes (and their charges) are paid once per distinct key.
        std::unordered_map<Value, std::vector<Row>, ValueHash> memo;
        for (FetchWork* w : by_owner[owner]) {
          const Partial& p = in[w->partial_idx];
          const Value& key = p.working[key_idx];
          const std::vector<Row>* needed_rows = nullptr;
          std::vector<Row> fresh;
          auto it = fold_mode_ ? memo.find(key) : memo.end();
          if (it != memo.end()) {
            needed_rows = &it->second;
          } else {
            size_t fetched_rows = 0;
            for (LocalRowId rid : w->rids) {
              const Row* row = frag->Get(rid);
              if (row == nullptr || !((*row)[step.target_col] == key)) {
                // Under locking, a concurrent transaction deleted or moved
                // the row after our GI probe read its entry: a conflict the
                // retry loop resolves, not a broken index.
                std::string what = "GI step: stale global index entry " +
                                   GlobalRowId{owner, rid}.ToString() +
                                   " for key " + key.ToString();
                if (sys_->config().enable_locking) {
                  return Status::Aborted(std::move(what));
                }
                return Status::Internal(std::move(what));
              }
              ++fetched_rows;
              // Global indexes cover all rows; selections apply post-fetch.
              if (!bound().RowPassesSelections(step.target_base, *row)) {
                continue;
              }
              fresh.push_back(bound().ProjectNeeded(step.target_base, *row));
            }
            // Distributed clustered: one key's matches at a node share a page
            // (the paper's assumption), so the whole rid list costs one FETCH.
            // Distributed non-clustered: one FETCH per row.
            sys_->cost().ChargeFetch(
                owner,
                dist_clustered ? (fetched_rows > 0 ? 1 : 0) : fetched_rows);
            needed_rows =
                fold_mode_
                    ? &memo.emplace(key, std::move(fresh)).first->second
                    : &fresh;
          }
          for (const Row& needed : *needed_rows) {
            PJVM_RETURN_NOT_OK(Extend(step, p.working, needed, owner, &w->out));
          }
        }
        return Status::OK();
      }));

  for (FetchWork* w : works) {
    out.insert(out.end(), std::make_move_iterator(w->out.begin()),
               std::make_move_iterator(w->out.end()));
  }
  return out;
}

}  // namespace pjvm
