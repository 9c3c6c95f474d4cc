#include "view/view_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {

const char* MaintenanceTimingToString(MaintenanceTiming timing) {
  switch (timing) {
    case MaintenanceTiming::kImmediate:
      return "IMMEDIATE";
    case MaintenanceTiming::kDeferred:
      return "DEFERRED";
  }
  return "UNKNOWN";
}

std::vector<std::pair<int, int>> ViewManager::ProbeColumns(
    const BoundView& bound) {
  std::vector<std::pair<int, int>> out;
  for (const BoundEdge& edge : bound.bound_edges()) {
    out.emplace_back(edge.left_base, edge.left_col);
    out.emplace_back(edge.right_base, edge.right_col);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status ViewManager::CreateStructures(const BoundView& bound,
                                     MaintenanceMethod method) {
  for (const auto& [base, col] : ProbeColumns(bound)) {
    const TableDef& def = bound.base_def(base);
    const std::string& col_name = def.schema.column(col).name;
    bool co_partitioned = def.PartitionedOn(col);
    // Any method may probe the raw base when it is co-partitioned (and the
    // naive method always does), which needs a local index on the attribute.
    if (method == MaintenanceMethod::kNaive || co_partitioned) {
      PJVM_RETURN_NOT_OK(
          sys_->CreateIndexOn(def.name, col_name, /*clustered=*/false));
    }
    // "the AR/GI for that relation is unnecessary"
    if (co_partitioned || method == MaintenanceMethod::kNaive) continue;
    PJVM_RETURN_NOT_OK(structures_.Require(method, def.name, col,
                                           bound.needed_cols(base),
                                           bound.base_preds(base)));
  }
  return Status::OK();
}

Status ViewManager::RegisterView(const JoinViewDef& def,
                                 MaintenanceMethod method,
                                 MaintenanceTiming timing) {
  if (views_.count(def.name) > 0) {
    return Status::AlreadyExists("view '" + def.name + "' already registered");
  }
  PJVM_ASSIGN_OR_RETURN(BoundView bound, BoundView::Bind(def, sys_->catalog()));
  PJVM_RETURN_NOT_OK(CreateStructures(bound, method));
  // Merged co-clustered layout: built before the view table so Create knows
  // to skip the partition index (the tree replaces it as the key-ordered
  // access path). A partition attribute that joins nothing yields an empty
  // cluster — the tree would interleave view rows with no probe-side
  // members, charging descents it can never save — so the separate layout
  // is kept silently in that case.
  std::unique_ptr<MergedViewStorage> store;
  if (MergedViewStorage::Eligible(sys_->config(), bound, method, timing)) {
    store = std::make_unique<MergedViewStorage>(sys_, bound);
    if (store->members().empty()) store.reset();
  }
  const bool merged = store != nullptr;
  PJVM_ASSIGN_OR_RETURN(MaterializedView mv,
                        MaterializedView::Create(sys_, bound, merged));

  ViewRegistration reg;
  reg.bound = std::move(bound);
  reg.method = method;
  reg.timing = timing;
  reg.view = std::make_unique<MaterializedView>(std::move(mv));
  reg.maintainer = std::make_unique<Maintainer>(
      sys_, reg.view.get(), method, &structures_, store.get());
  reg.maintain_ns = MetricsRegistry::Global().histogram(
      std::string("pjvm_maintain_view_ns{method=\"") +
      MaintenanceMethodToString(method) + "\"}");

  // Backfill the view from the current base contents, one run per node.
  PJVM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        EvaluateViewFromScratch(sys_, reg.bound));
  PJVM_RETURN_NOT_OK(sys_->InsertMany(def.name, std::move(rows)));
  if (merged) {
    // Loaded after the backfill so RebuildFromHeaps sees the full view; the
    // hook keeps the tree in step with every later ApplyOutputs, and the
    // storage overlay attributes the trees' bytes to the view's TableBytes
    // line (EXPLAIN ANALYZE storage reporting).
    PJVM_RETURN_NOT_OK(store->RebuildFromHeaps());
    MergedViewStorage* raw = store.get();
    reg.view->set_merged_hook(
        [raw](uint64_t txn, int node, const Row& row, bool is_delete) {
          return raw->ApplyViewEdit(txn, node, row, is_delete);
        });
    sys_->SetStorageOverlay(def.name, [raw] { return raw->TreeBytes(); });
    merged_.emplace(def.name, std::move(store));
  }
  auto [vit, inserted] = views_.emplace(def.name, std::move(reg));
  (void)inserted;
  // Escrow routing for eligible aggregate views: registered against the
  // *stored* registration's BoundView (stable for the view's lifetime) and
  // wired as the MaterializedView's per-contribution hook. The registry
  // itself rejects ineligible shapes (non-aggregate, round-robin); deferred
  // timing stays eager — its refresh runs whole recompute-and-diff
  // transactions, not per-group increments.
  if (escrow_ != nullptr && !merged &&
      vit->second.timing == MaintenanceTiming::kImmediate &&
      vit->second.bound.is_aggregate()) {
    ViewRegistration& stored = vit->second;
    const TableId view = stored.view->table_id();
    escrow_->AddView(view, &stored.bound);
    EscrowRegistry* esc = escrow_.get();
    stored.view->set_escrow_hook(
        [esc, view](uint64_t txn, int node, const Row& row, bool is_delete) {
          return esc->Apply(txn, node, view, row, is_delete);
        });
  }
  return Status::OK();
}

int ViewManager::BaseIndexOf(const ViewRegistration& reg,
                             const std::string& table) {
  for (int i = 0; i < reg.bound.num_bases(); ++i) {
    if (reg.bound.base_def(i).name == table) return i;
  }
  return -1;
}

Result<MaintenanceReport> ViewManager::ApplyDelta(DeltaBatch delta,
                                                  MaintenanceAnalysis* analysis) {
  if (!sys_->catalog().Has(delta.table)) {
    return Status::NotFound("no base table '" + delta.table + "'");
  }
  // Normalize updates into delete+insert pairs.
  for (auto& [old_row, new_row] : delta.updates) {
    delta.deletes.push_back(std::move(old_row));
    delta.inserts.push_back(std::move(new_row));
  }
  delta.updates.clear();

  // Heavy/light: hold the routing/fold mutex for the whole transaction, and
  // restore the deferral invariant first — a view buffering deltas of one
  // base must fold *before* a delta on any other base of it runs, or the
  // fold would join its buffered rows against neighbours that have moved.
  const bool hl = classifier_ != nullptr;
  std::unique_lock<std::mutex> hl_lock;
  if (hl) {
    hl_lock = std::unique_lock<std::mutex>(hl_mu_);
    for (auto& [name, reg] : views_) {
      int base_idx = BaseIndexOf(reg, delta.table);
      if (base_idx < 0) continue;
      const DeferredDeltaStore::Buffer* buf = deferred_.Find(name);
      if (buf != nullptr && buf->rows() > 0 && buf->base_idx != base_idx) {
        PJVM_RETURN_NOT_OK(FoldViewLocked(name, reg));
      }
    }
  }

  const uint64_t t0 = Tracer::NowNs();

  // Ambient multi-tenant attribution: when a driver tagged this thread
  // (workload/openloop.h), spans carry the tenant and the emitted metric
  // series gain tenant/view labels, so per-tenant SLO telemetry exists
  // without a tenant parameter on this API.
  const WorkloadTag* tag = WorkloadTagScope::Current();
  SpanGuard txn_span("maintain_txn", "view");
  if (txn_span.active()) {
    txn_span.set_detail(
        delta.table + " +" + std::to_string(delta.inserts.size()) + "/-" +
        std::to_string(delta.deletes.size()) +
        (tag != nullptr ? " tenant=" + tag->tenant : ""));
  }

  // Rows the current attempt routed into a view's deferred buffer. Staging
  // is per attempt and flushed only after Commit, so a wait-die-aborted
  // attempt neither loses nor duplicates buffered rows.
  struct StagedRow {
    const std::string* view;
    int base_idx;
    bool is_delete;
    Row row;
    GlobalRowId gid;
  };
  std::vector<StagedRow> staged;
  MaintenanceReport total;

  auto body = [&](uint64_t txn) -> Status {
    total = MaintenanceReport{};
    staged.clear();
    // The runner's per-attempt meter when an analysis is requested; the
    // per-view phases below diff it.
    const CostTracker::TxnMeter* meter =
        analysis != nullptr ? CostTracker::ActiveMeter() : nullptr;
    {
      // 1. Update the base relation, capturing each row's global row id.
      //    Deletes must be located before removal (GIs reference their rids).
      SpanGuard span("base_update", "view");
      delta.delete_gids.clear();
      for (const Row& row : delta.deletes) {
        PJVM_ASSIGN_OR_RETURN(GlobalRowId gid,
                              sys_->LocateExact(delta.table, row));
        delta.delete_gids.push_back(gid);
        PJVM_RETURN_NOT_OK(sys_->DeleteExact(delta.table, row, txn));
      }
      delta.insert_gids.clear();
      if (!delta.inserts.empty()) {
        // Batch insert: rows are grouped by home node and applied by each
        // node's worker in parallel, with gids in delta order.
        PJVM_RETURN_NOT_OK(sys_->InsertMany(delta.table, delta.inserts, txn,
                                            &delta.insert_gids));
      }
    }
    {
      // 2. Update the auxiliary structures (shared across views, done once).
      SpanGuard span("structure_update", "view");
      PJVM_ASSIGN_OR_RETURN(total.structure_writes,
                            structures_.ApplyDelta(txn, delta));
      // 2.5 Mirror the delta into each merged co-clustered tree. The rows
      // were just shipped to their key homes by the AR update, so the
      // mirror performs no sends — only in-range tree edits.
      for (auto& [name, store] : merged_) {
        PJVM_RETURN_NOT_OK(store->MirrorDelta(txn, delta));
      }
    }
    // 3. Maintain every dependent view.
    for (auto& [name, reg] : views_) {
      int base_idx = BaseIndexOf(reg, delta.table);
      if (base_idx < 0) continue;
      if (reg.timing == MaintenanceTiming::kDeferred) {
        reg.stale = true;  // Brought current later by RefreshView().
        continue;
      }
      // Heavy/light routing: heavy rows are staged for the view's deferred
      // buffer and only the light remainder is maintained eagerly in this
      // transaction. A delete whose content matches a buffered insert MUST
      // buffer regardless of its key's class — that insert's derivations
      // were never applied, so an eager delete would remove view rows that
      // don't exist (the pair annihilates at flush instead). Symmetrically,
      // an insert matching a buffered delete buffers and annihilates.
      const DeltaBatch* effective = &delta;
      DeltaBatch light;
      if (hl) {
        light.table = delta.table;
        RowCounts avail_ins = deferred_.SignedCounts(name, /*deletes=*/false);
        RowCounts avail_del = deferred_.SignedCounts(name, /*deletes=*/true);
        auto route = [&](bool is_delete, const Row& row,
                         GlobalRowId gid) -> bool {
          RowCounts& opposite = is_delete ? avail_ins : avail_del;
          RowCounts& same = is_delete ? avail_del : avail_ins;
          auto match = opposite.find(row);
          bool buffer = false;
          if (match != opposite.end() && match->second > 0) {
            --match->second;  // Annihilates when the attempt commits.
            buffer = true;
          } else if (classifier_->IsHeavy(reg.bound, base_idx, row)) {
            ++same[row];
            buffer = true;
          }
          if (buffer) {
            staged.push_back(StagedRow{&name, base_idx, is_delete, row, gid});
          }
          return buffer;
        };
        for (size_t i = 0; i < delta.deletes.size(); ++i) {
          if (!route(true, delta.deletes[i], delta.delete_gids[i])) {
            light.deletes.push_back(delta.deletes[i]);
            light.delete_gids.push_back(delta.delete_gids[i]);
          }
        }
        for (size_t i = 0; i < delta.inserts.size(); ++i) {
          if (!route(false, delta.inserts[i], delta.insert_gids[i])) {
            light.inserts.push_back(delta.inserts[i]);
            light.insert_gids.push_back(delta.insert_gids[i]);
          }
        }
        effective = &light;
      }
      const char* method_str = MaintenanceMethodToString(reg.method);
      std::vector<NodeCounters> view_before;
      if (meter != nullptr) view_before = meter->Snapshot();
      const uint64_t view_t0 = Tracer::NowNs();
      SpanGuard view_span("maintain_view", "view", -1, nullptr, method_str);
      if (view_span.active()) view_span.set_detail(name);
      PJVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                            reg.maintainer->ApplyDelta(txn, base_idx,
                                                       *effective));
      uint64_t view_ns = Tracer::NowNs() - view_t0;
      reg.maintain_ns->Record(view_ns);
      if (tag != nullptr) {
        // The updating tenant pays for maintaining every dependent view —
        // including other tenants' — so the labeled series carries both the
        // payer (tenant) and the maintained view.
        MetricsRegistry::Global()
            .histogram("pjvm_maintain_view_ns",
                       {{"method", method_str},
                        {"tenant", tag->tenant},
                        {"view", name}})
            ->Record(view_ns);
      }
      if (meter != nullptr) {
        std::vector<NodeCounters> view_after = meter->Snapshot();
        for (size_t i = 0; i < view_after.size(); ++i) {
          view_after[i] = view_after[i] - view_before[i];
        }
        MaintenanceAnalysis::ViewPhase phase;
        phase.view = name;
        phase.method = reg.method;
        phase.wall_ms = static_cast<double>(view_ns) / 1e6;
        phase.rows_inserted = report.view_rows_inserted;
        phase.rows_deleted = report.view_rows_deleted;
        phase.probes = report.probes;
        phase.nodes_touched = CountTouchedNodes(view_after);
        analysis->views.push_back(std::move(phase));
      }
      total += report;
    }
    return Status::OK();
  };
  PJVM_RETURN_NOT_OK(RunMaintenanceTxn(body, analysis));

  if (hl) {
    // The transaction committed: flush its staged rows into the deferred
    // buffers (Append cancels opposite-sign churn), account the stream
    // against the planner statistics, and fold any buffer that crossed the
    // size trigger. An error here surfaces even though the delta committed:
    // the buffers are intact, so nothing is lost, and silent failure would
    // let them grow without bound.
    for (StagedRow& s : staged) {
      deferred_.Append(*s.view, s.base_idx, s.is_delete, std::move(s.row),
                       s.gid);
    }
    classifier_->RecordOps(delta.table,
                           delta.inserts.size() + delta.deletes.size());
    UpdateDeferredGauge();
    const int trigger = sys_->config().deferred_fold_rows;
    if (trigger > 0) {
      for (auto& [name, reg] : views_) {
        if (deferred_.rows(name) >= static_cast<size_t>(trigger)) {
          PJVM_RETURN_NOT_OK(FoldViewLocked(name, reg));
        }
      }
    }
  }

  static Counter* const txns_counter =
      MetricsRegistry::Global().counter("pjvm_maintain_txns");
  static LatencyHistogram* const txn_ns_histogram =
      MetricsRegistry::Global().histogram("pjvm_maintain_txn_ns");
  const uint64_t txn_ns = Tracer::NowNs() - t0;
  txns_counter->Increment();
  txn_ns_histogram->Record(txn_ns);
  if (tag != nullptr) {
    MetricsRegistry::Global()
        .histogram("pjvm_maintain_txn_ns", {{"tenant", tag->tenant}})
        ->Record(txn_ns);
    // Windowed per-tenant maintenance latency: one rotating histogram per
    // tenant so warmup and steady state report separately (1s windows).
    MetricsRegistry::Global()
        .windowed("pjvm_slo_maintain_txn_ns", {{"tenant", tag->tenant}})
        ->Record(txn_ns, t0);
  }
  if (analysis != nullptr) {
    analysis->table = delta.table;
    analysis->base_inserts = delta.inserts.size();
    analysis->base_deletes = delta.deletes.size();
    analysis->wall_ms = static_cast<double>(txn_ns) / 1e6;
    analysis->report = total;
  }
  return total;
}

Status ViewManager::RunMaintenanceTxn(
    const std::function<Status(uint64_t txn)>& body,
    MaintenanceAnalysis* analysis) {
  // Bounded retry: under wait-die a maintenance transaction can be chosen as
  // the deadlock-avoidance victim (or time out waiting) and surface an
  // Aborted status from some lock acquisition. The victim's locks are all
  // released by Abort; it backs off (exponentially, with jitter so repeat
  // offenders don't re-collide in lockstep) and re-runs the whole body
  // under a fresh Begin(). Only Aborted statuses retry — real errors surface
  // immediately — and the loop is bounded by maintain_max_attempts, after
  // which the Aborted status reaches the caller. Every failed attempt is
  // aborted, so no exit leaves a transaction in flight.
  static Counter* retries_counter =
      MetricsRegistry::Global().counter("pjvm_maintain_retries");
  static Counter* aborted_counter =
      MetricsRegistry::Global().counter("pjvm_maintain_txns_aborted");
  const int max_attempts = std::max(1, sys_->config().maintain_max_attempts);
  const int base_us = sys_->config().maintain_retry_base_us;
  if (analysis != nullptr) {
    analysis->backoff_ns = 0;
    analysis->attempt_aborts.clear();
  }
  uint64_t lineage = 0;
  for (int attempt = 1;; ++attempt) {
    const uint64_t txn = sys_->Begin();
    if (lineage == 0) {
      lineage = txn;
    } else {
      // A restart keeps the lineage's original timestamp (the classic
      // wait-die anti-starvation rule): each retry runs under a
      // fresh txn id — reusing the id would confuse WAL replay — but is
      // never again the youngest transaction in every conflict it meets.
      sys_->locks().SetAge(txn, lineage);
    }
    // Per-transaction metering: when an analysis is requested, a TxnMeter is
    // active around each attempt, so every I/O charge, interconnect hop,
    // lock escalation and escrow op this transaction makes — on this thread
    // or on executor workers running its tasks — lands in the meter, not
    // polluted by concurrent transactions. The meter only mirrors charges,
    // so the global counters are identical whether or not anyone watches.
    // Each attempt meters from zero: a killed attempt's work (and its
    // per-view phases) would double-count.
    std::optional<CostTracker::TxnMeter> meter;
    std::optional<CostTracker::MeterScope> meter_scope;
    if (analysis != nullptr) {
      analysis->views.clear();
      analysis->attempts = attempt;
      meter.emplace(sys_->num_nodes());
      meter_scope.emplace(&*meter);
    }
    Status st = body(txn);
    if (st.ok()) {
      // A commit failure (e.g. an injected crash mid-2PC) is not retryable:
      // the system needs Recover(), not another attempt.
      PJVM_RETURN_NOT_OK(sys_->Commit(txn));
      for (auto& [name, store] : merged_) store->OnCommit(txn);
      if (analysis != nullptr) {
        using Tally = CostTracker::TxnMeter::Tally;
        analysis->weights = sys_->cost().weights();
        analysis->per_node = meter->Snapshot();
        analysis->total_workload = 0.0;
        analysis->response_time = 0.0;
        for (const NodeCounters& c : analysis->per_node) {
          double io = c.IO(analysis->weights);
          analysis->total_workload += io;
          analysis->response_time = std::max(analysis->response_time, io);
        }
        analysis->nodes_touched = CountTouchedNodes(analysis->per_node);
        analysis->messages = meter->Get(Tally::kMessages);
        analysis->bytes_sent = meter->Get(Tally::kBytesSent);
        analysis->escalations = meter->Get(Tally::kEscalations);
        analysis->lock_entries_reclaimed =
            meter->Get(Tally::kLockEntriesReclaimed);
        analysis->escrow_ops = meter->Get(Tally::kEscrowOps);
        analysis->vlock_upgrades = meter->Get(Tally::kVlockUpgrades);
      }
      return Status::OK();
    }
    meter_scope.reset();
    // Roll the merged trees back before the locks go: once ReleaseAll runs,
    // a successor can descend into the ranges this attempt edited.
    for (auto& [name, store] : merged_) store->OnAbort(txn);
    sys_->Abort(txn).Check();
    aborted_counter->Increment();
    if (analysis != nullptr) analysis->attempt_aborts.push_back(st.ToString());
    if (!st.IsAborted() || attempt == max_attempts) return st;
    retries_counter->Increment();
    if (base_us > 0) {
      // Delay uniformly in [step, 2*step) where step = base * 2^(attempt-1).
      // The exponent is capped: blockers hold their locks for at most a
      // commit's worth of WAL forces, so sleeping far past that scale (an
      // uncapped 2^15 step is seconds) only throttles the retrier without
      // reducing conflicts.
      Rng jitter(txn * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(attempt));
      int64_t step = static_cast<int64_t>(base_us)
                     << std::min(attempt - 1, 6);
      int64_t delay = step + jitter.UniformInt(0, step - 1);
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      if (analysis != nullptr) {
        analysis->backoff_ns += static_cast<uint64_t>(delay) * 1000;
      }
    }
  }
}

Status ViewManager::LockViewFragments(uint64_t txn, TableId view) {
  if (!sys_->config().enable_locking) return Status::OK();
  // One fragment-granularity X lock per node on the view table up front: a
  // fold or refresh rewrites many rows of the view, so per-key locks would
  // flood the table and escalate anyway; taking the fragment lock first
  // lets the coverage fast path answer every per-row acquire below it.
  for (int n = 0; n < sys_->num_nodes(); ++n) {
    PJVM_RETURN_NOT_OK(sys_->locks().Acquire(txn, LockId::Table(n, view),
                                             LockMode::kExclusive));
  }
  return Status::OK();
}

Status ViewManager::UnregisterView(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' is not registered");
  }
  if (classifier_ != nullptr) {
    // Buffered deltas die with the view.
    std::lock_guard<std::mutex> lock(hl_mu_);
    deferred_.Clear(name);
    UpdateDeferredGauge();
  }
  const ViewRegistration& reg = it->second;
  for (const auto& [base, col] : ProbeColumns(reg.bound)) {
    const TableDef& def = reg.bound.base_def(base);
    if (def.PartitionedOn(col) || reg.method == MaintenanceMethod::kNaive) {
      continue;
    }
    PJVM_RETURN_NOT_OK(structures_.Release(reg.method, def.name, col));
  }
  if (merged_.count(name) > 0) {
    sys_->ClearStorageOverlay(name);
    merged_.erase(name);
  }
  if (escrow_ != nullptr) escrow_->RemoveView(reg.view->table_id());
  PJVM_RETURN_NOT_OK(sys_->DropTable(name));
  views_.erase(it);
  return Status::OK();
}

Status ViewManager::RefreshView(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' is not registered");
  }
  ViewRegistration& reg = it->second;
  if (reg.timing == MaintenanceTiming::kImmediate || !reg.stale) {
    return Status::OK();
  }
  PJVM_RETURN_NOT_OK(RecomputeAndDiff(name, reg));
  reg.stale = false;
  return Status::OK();
}

Status ViewManager::RecomputeAndDiff(const std::string& name,
                                     ViewRegistration& reg) {
  return RunMaintenanceTxn([&](uint64_t txn) -> Status {
    // Recompute and diff inside the attempt, under the view's fragment X
    // locks: no other transaction writes the view between the diff and its
    // application, and a retried attempt diffs afresh instead of applying
    // the difference a killed attempt computed.
    PJVM_RETURN_NOT_OK(LockViewFragments(txn, reg.view->table_id()));
    // Charge what the recomputation reads: a full scan of every base
    // relation's fragments (sort/hash join passes are subsumed by the
    // engine's memory budget at these scales; a refresh is scan-dominated).
    for (int i = 0; i < reg.bound.num_bases(); ++i) {
      const TableId table = reg.bound.base_def(i).id;
      for (int n = 0; n < sys_->num_nodes(); ++n) {
        const TableFragment* frag = sys_->node(n)->fragment(table);
        if (frag != nullptr) sys_->cost().ChargeIOPages(n, frag->num_pages());
      }
    }
    PJVM_ASSIGN_OR_RETURN(std::vector<Row> expected,
                          EvaluateViewFromScratch(sys_, reg.bound));
    // Diff against stored contents (bag semantics) and apply the difference:
    // surplus stored rows are deleted in scan order, then missing rows are
    // inserted in evaluation order.
    const std::vector<Row> stored = sys_->ScanAll(name);
    RowCounts delta;  // expected minus stored multiplicity
    for (const Row& row : expected) ++delta[row];
    for (const Row& row : stored) --delta[row];
    for (const Row& row : stored) {
      for (int& count = delta[row]; count < 0; ++count) {
        PJVM_RETURN_NOT_OK(sys_->DeleteExact(name, row, txn));
      }
    }
    for (const Row& row : expected) {
      for (int& count = delta[row]; count > 0; --count) {
        PJVM_RETURN_NOT_OK(sys_->Insert(name, row, txn));
      }
    }
    return Status::OK();
  });
}

Status ViewManager::RefreshAllViews() {
  for (auto& [name, reg] : views_) {
    PJVM_RETURN_NOT_OK(RefreshView(name));
  }
  return Status::OK();
}

bool ViewManager::IsStale(const std::string& name) const {
  auto it = views_.find(name);
  return it != views_.end() && it->second.stale;
}

MaterializedView* ViewManager::view(const std::string& name) {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.view.get();
}

const ViewRegistration* ViewManager::registration(
    const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::vector<std::string> names;
  for (const auto& [name, reg] : views_) names.push_back(name);
  return names;
}

void ViewManager::UpdateDeferredGauge() {
  MetricsRegistry::Global()
      .gauge("pjvm_deferred_delta_rows")
      ->Set(static_cast<double>(deferred_.total_rows()));
  MetricsRegistry::Global()
      .gauge("pjvm_deferred_rows_cancelled")
      ->Set(static_cast<double>(deferred_.cancelled()));
}

Status ViewManager::FoldViewLocked(const std::string& name,
                                   ViewRegistration& reg) {
  const DeferredDeltaStore::Buffer* buf = deferred_.Find(name);
  if (buf == nullptr || buf->rows() == 0) return Status::OK();
  static Counter* folds =
      MetricsRegistry::Global().counter("pjvm_deferred_folds");
  SpanGuard span("deferred_fold", "view", -1, nullptr,
                 MaintenanceMethodToString(reg.method));
  if (span.active()) {
    span.set_detail(name + " rows=" + std::to_string(buf->rows()));
  }

  // The buffered rows' base and structure updates were applied eagerly when
  // they arrived, so the fold is pure view maintenance: the same
  // Maintainer::ApplyDelta contract as step 3 of a normal transaction.
  DeltaBatch batch;
  batch.table = reg.bound.base_def(buf->base_idx).name;
  batch.inserts = buf->inserts;
  batch.insert_gids = buf->insert_gids;
  batch.deletes = buf->deletes;
  batch.delete_gids = buf->delete_gids;
  const int updated_base = buf->base_idx;

  // A fold can be the wait-die victim of a concurrent reader/writer; the
  // runner backs off and re-runs it under a fresh transaction id with its
  // lineage's age.
  auto body = [&](uint64_t txn) -> Status {
    PJVM_RETURN_NOT_OK(LockViewFragments(txn, reg.view->table_id()));
    reg.maintainer->set_fold_mode(true);
    Result<MaintenanceReport> rep =
        reg.maintainer->ApplyDelta(txn, updated_base, batch);
    reg.maintainer->set_fold_mode(false);
    return rep.status();
  };
  PJVM_RETURN_NOT_OK(RunMaintenanceTxn(body));
  // Only a durably committed fold empties the buffer: a wait-die victim
  // retries with every buffered row intact, a success never re-applies one,
  // and after a failed commit the buffer stays for RecoverViews to reconcile.
  deferred_.Clear(name);
  UpdateDeferredGauge();
  folds->Increment();
  return Status::OK();
}

Status ViewManager::FoldView(const std::string& name) {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' is not registered");
  }
  std::lock_guard<std::mutex> lock(hl_mu_);
  return FoldViewLocked(name, it->second);
}

Status ViewManager::FoldAllDeferred() {
  std::lock_guard<std::mutex> lock(hl_mu_);
  for (auto& [name, reg] : views_) {
    PJVM_RETURN_NOT_OK(FoldViewLocked(name, reg));
  }
  return Status::OK();
}

size_t ViewManager::DeferredRows(const std::string& name) const {
  std::lock_guard<std::mutex> lock(hl_mu_);
  return deferred_.rows(name);
}

Status ViewManager::RecoverViews() {
  // The crash wiped the heaps with the journal's in-flight state still
  // resident (Crash() presumes every in-flight transaction aborted without
  // running its hook — there is no heap left to roll back). Committed
  // escrow deltas were replayed from the WALs by Recover(); drop the stale
  // journal so the next first touch re-seeds from the recovered rows.
  if (escrow_ != nullptr) escrow_->Reset();
  PJVM_RETURN_NOT_OK(structures_.RebuildGlobalIndexes());
  std::lock_guard<std::mutex> lock(hl_mu_);
  for (auto& [name, reg] : views_) {
    if (deferred_.rows(name) == 0) continue;
    // The buffered rows' base effects were recovered from the WAL, but
    // their gids reference pre-crash heap positions (rids are not stable
    // across a heap rebuild). Discard the buffer and reconcile the view
    // from the recovered bases instead.
    deferred_.Clear(name);
    PJVM_RETURN_NOT_OK(RecomputeAndDiff(name, reg));
  }
  UpdateDeferredGauge();
  // The merged trees live outside the WAL'd heaps (they are derived state,
  // like the GIs above); rebuild each from the recovered heaps.
  for (auto& [name, store] : merged_) {
    PJVM_RETURN_NOT_OK(store->RebuildFromHeaps());
  }
  return Status::OK();
}

Status ViewManager::CheckAllConsistent() {
  // Buffered heavy-key deltas are view work the system still owes; the
  // oracle compares settled state, so fold everything first.
  if (classifier_ != nullptr) PJVM_RETURN_NOT_OK(FoldAllDeferred());
  for (auto& [name, reg] : views_) {
    // A stale deferred view is *expected* to lag; only fresh contents are
    // held to the oracle.
    if (reg.stale) continue;
    PJVM_ASSIGN_OR_RETURN(std::vector<Row> expected,
                          EvaluateViewFromScratch(sys_, reg.bound));
    std::vector<Row> actual = reg.view->Contents();
    RowCounts want, got;
    for (const Row& r : expected) want[r]++;
    for (const Row& r : actual) got[r]++;
    if (want != got) {
      std::string detail;
      for (const auto& [row, count] : want) {
        auto it = got.find(row);
        int have = it == got.end() ? 0 : it->second;
        if (have != count) {
          detail += " expected " + std::to_string(count) + "x" +
                    RowToString(row) + " got " + std::to_string(have) + ";";
        }
      }
      for (const auto& [row, count] : got) {
        if (want.count(row) == 0) {
          detail += " unexpected " + std::to_string(count) + "x" +
                    RowToString(row) + ";";
        }
      }
      return Status::Internal("view '" + name +
                              "' diverged from from-scratch join:" + detail);
    }
  }
  // Invariant 10 (DESIGN.md): each merged tree holds exactly the rows its
  // members' heaps and the view's heap imply — merged ≡ separate contents.
  for (auto& [name, store] : merged_) {
    PJVM_RETURN_NOT_OK(store->CheckConsistent());
  }
  // Escrow invariant: at a quiescent point the journal must be empty —
  // every group's heap row then carries exactly the committed image the
  // X-lock (eager) path would have produced, which the oracle compare
  // above just proved byte-for-byte.
  if (escrow_ != nullptr) PJVM_RETURN_NOT_OK(escrow_->CheckConsistent());
  PJVM_RETURN_NOT_OK(structures_.CheckConsistent());
  return sys_->CheckInvariants();
}

}  // namespace pjvm
