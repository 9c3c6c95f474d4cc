#ifndef PJVM_VIEW_VIEW_MANAGER_H_
#define PJVM_VIEW_VIEW_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engine/system.h"
#include "view/escrow.h"
#include "view/explain.h"
#include "view/heavy_light.h"
#include "view/maintainer.h"
#include "view/materialized_view.h"
#include "view/merged_storage.h"
#include "view/structure_registry.h"
#include "view/view_def.h"

namespace pjvm {

class LatencyHistogram;

/// \brief When a view's contents are brought up to date.
enum class MaintenanceTiming {
  /// Inside every base-update transaction (the paper's setting).
  kImmediate = 0,
  /// The view goes stale as base tables change and is brought current by
  /// RefreshView(): a from-scratch recomputation diffed against the stored
  /// contents — the traditional warehouse's periodic batch refresh, kept as
  /// the baseline the paper's operational scenario argues against.
  kDeferred,
};

const char* MaintenanceTimingToString(MaintenanceTiming timing);

/// \brief How one view is registered for maintenance.
struct ViewRegistration {
  BoundView bound;
  MaintenanceMethod method;
  MaintenanceTiming timing = MaintenanceTiming::kImmediate;
  bool stale = false;
  std::unique_ptr<MaterializedView> view;
  std::unique_ptr<Maintainer> maintainer;
  /// The untagged `pjvm_maintain_view_ns{method=...}` series, resolved once
  /// at registration rather than looked up per delta.
  LatencyHistogram* maintain_ns = nullptr;
};

/// \brief The system's view-maintenance front end.
///
/// Owns the registered views, their materialized tables, and the shared
/// auxiliary structures (ARs and GIs). ApplyDelta runs the paper's
/// transaction:
///
///   begin transaction
///     update base relation;
///     update auxiliary relations / global indexes;   (method-dependent)
///     update join views;
///   end transaction   (two-phase commit over the touched nodes)
///
/// Deferred folds and refreshes are maintenance transactions too: all three
/// run through one private runner (RunMaintenanceTxn) that owns the
/// transaction lifecycle, the bounded retry and the per-attempt meter.
class ViewManager {
 public:
  explicit ViewManager(ParallelSystem* sys) : sys_(sys), structures_(sys) {
    if (sys->config().heavy_light) {
      classifier_ =
          std::make_unique<HeavyLightClassifier>(sys, kStatsRefreshOps);
    }
    // Escrow needs the V/X lock protocol to mean anything: without locking
    // there is no eager X serialization to relax, and the byte-for-byte
    // equivalence to the unlocked path would not hold anyway.
    if (sys->config().escrow_aggregates && sys->config().enable_locking) {
      escrow_ = std::make_unique<EscrowRegistry>(sys);
      sys->SetTxnHook(escrow_.get());
    }
  }
  ~ViewManager() {
    // The system outlives this manager in every embedding; the hook must
    // not dangle into the destroyed journal.
    if (escrow_ != nullptr) sys_->SetTxnHook(nullptr);
  }

  ParallelSystem* system() { return sys_; }

  /// Validates and registers `def`, creating the view table, backfilling it
  /// from the base tables, and creating whatever structures `method` needs
  /// (join-attribute indexes; ARs; GIs). Structures are shared across views.
  Status RegisterView(const JoinViewDef& def, MaintenanceMethod method,
                      MaintenanceTiming timing = MaintenanceTiming::kImmediate);

  /// Brings a deferred view current: recomputes the join from scratch
  /// (charging a scan of every base fragment) and applies the difference to
  /// the stored contents, in a maintenance transaction that X-locks the
  /// view's fragments and retries like ApplyDelta. No-op when the view is
  /// already fresh.
  Status RefreshView(const std::string& name);
  /// Refreshes every stale deferred view.
  Status RefreshAllViews();
  bool IsStale(const std::string& name) const;

  /// Applies a batch of base-table changes and maintains every dependent
  /// view, all in one distributed transaction. Updates in `delta.updates`
  /// are normalized to delete+insert. Returns the aggregate report.
  ///
  /// Under contention a transaction may be chosen as the wait-die victim;
  /// the attempt is aborted (releasing all its locks) and retried under a
  /// fresh transaction id with exponential backoff + jitter, up to
  /// `SystemConfig::maintain_max_attempts` (`maintain_retry_base_us` sets
  /// the first delay). Retries are counted in `pjvm_maintain_retries`; a
  /// client-visible Aborted status only escapes when attempts are exhausted.
  ///
  /// When `analysis` is non-null it is filled with the transaction's
  /// EXPLAIN ANALYZE: per-node CostTracker deltas, message/byte counts, and
  /// a per-view phase breakdown. Collecting it only reads counters, so the
  /// charged costs are identical with or without it.
  Result<MaintenanceReport> ApplyDelta(DeltaBatch delta,
                                       MaintenanceAnalysis* analysis = nullptr);

  /// Single-row conveniences (each a full maintenance transaction).
  Result<MaintenanceReport> InsertRow(const std::string& table, Row row) {
    return ApplyDelta(DeltaBatch::Inserts(table, {std::move(row)}));
  }
  Result<MaintenanceReport> DeleteRow(const std::string& table, Row row) {
    return ApplyDelta(DeltaBatch::Deletes(table, {std::move(row)}));
  }
  Result<MaintenanceReport> UpdateRow(const std::string& table, Row old_row,
                                      Row new_row) {
    DeltaBatch delta;
    delta.table = table;
    delta.updates.emplace_back(std::move(old_row), std::move(new_row));
    return ApplyDelta(std::move(delta));
  }

  MaterializedView* view(const std::string& name);
  const ViewRegistration* registration(const std::string& name) const;
  std::vector<std::string> ViewNames() const;

  /// Recomputes each registered view from scratch and compares (bag
  /// semantics) with the materialized contents — the paper-independent
  /// correctness oracle. Also verifies AR/GI consistency.
  Status CheckAllConsistent();

  /// Removes a view: drops its materialized table and releases its
  /// auxiliary structures (shared ARs/GIs survive while other views need
  /// them; base-table indexes created for the naive method are kept).
  Status UnregisterView(const std::string& name);

  /// Full post-crash view recovery: rebuilds the global indexes, then
  /// reconciles any view with buffered heavy-key deltas. Buffered gids
  /// reference pre-crash heap positions (and the base rows the buffered
  /// txns wrote *are* recovered), so the buffers are discarded and each
  /// affected view is brought current by recompute-and-diff instead.
  Status RecoverViews();

  /// Folds one view's buffered heavy-key deltas into the view, in its own
  /// bounded-retry transaction under fragment-level view locks. No-op when
  /// nothing is buffered (or heavy/light is off).
  Status FoldView(const std::string& name);
  /// Folds every view's buffer (run before comparing against the oracle, at
  /// a bench window's end, etc.).
  Status FoldAllDeferred();
  /// Buffered heavy-delta rows for one view.
  size_t DeferredRows(const std::string& name) const;

  /// The heavy/light classifier; nullptr when SystemConfig::heavy_light is
  /// off.
  HeavyLightClassifier* classifier() { return classifier_.get(); }

  /// The escrow journal; nullptr when SystemConfig::escrow_aggregates is
  /// off (or locking is disabled).
  EscrowRegistry* escrow() { return escrow_.get(); }

  StructureRegistry& structures() { return structures_; }

  /// The view's merged co-clustered storage, or nullptr for the separate
  /// layout (SystemConfig::merged_ar_storage off or the view ineligible).
  MergedViewStorage* merged_storage(const std::string& name) {
    auto it = merged_.find(name);
    return it == merged_.end() ? nullptr : it->second.get();
  }

 private:
  /// Ensures every probe-side structure for `bound` under `method` exists.
  Status CreateStructures(const BoundView& bound, MaintenanceMethod method);
  /// (base table, full column) pairs that some maintenance step may probe.
  static std::vector<std::pair<int, int>> ProbeColumns(const BoundView& bound);
  /// Index of `table` within `reg`'s bases, or -1.
  static int BaseIndexOf(const ViewRegistration& reg, const std::string& table);

  /// Runs `body` as one maintenance transaction: the only place this class
  /// begins, ages, commits and aborts transactions. Each attempt runs the
  /// body under a fresh txn id carrying its lineage's age; an attempt that
  /// fails is rolled back (merged trees, then the system transaction) and,
  /// if the failure was Aborted, retried after a capped, jittered backoff,
  /// up to SystemConfig::maintain_max_attempts. When `analysis` is non-null
  /// each attempt runs under its own TxnMeter, and the committed attempt's
  /// ledger (per-node I/O, messages, escalations, escrow ops) and the retry
  /// history are written to it.
  Status RunMaintenanceTxn(const std::function<Status(uint64_t txn)>& body,
                           MaintenanceAnalysis* analysis = nullptr);
  /// X-locks every node's fragment of `view` for `txn` (no-op without
  /// locking): the whole-view footprint of folds and refreshes.
  Status LockViewFragments(uint64_t txn, TableId view);
  /// Recomputes `name` from scratch and applies the bag difference to the
  /// stored contents in one maintenance transaction (the deferred-refresh /
  /// recovery reconciliation primitive).
  Status RecomputeAndDiff(const std::string& name, ViewRegistration& reg);
  /// FoldView body; requires hl_mu_ held.
  Status FoldViewLocked(const std::string& name, ViewRegistration& reg);
  void UpdateDeferredGauge();

  ParallelSystem* sys_;
  StructureRegistry structures_;
  std::map<std::string, ViewRegistration> views_;
  /// Merged co-clustered trees, keyed by view name (eligible views only).
  std::map<std::string, std::unique_ptr<MergedViewStorage>> merged_;
  /// Escrow journal for aggregate views (SystemConfig::escrow_aggregates);
  /// registered as the system's TxnHook for this manager's lifetime.
  std::unique_ptr<EscrowRegistry> escrow_;

  // Heavy/light deferred maintenance (SystemConfig::heavy_light). hl_mu_
  // serializes routing decisions, buffer mutation, and folds: a fold joins
  // buffered rows against the neighbours' *current* state, which must not
  // move while it runs. The scalable concurrent write path is heavy_light
  // off; see the knob's doc in engine/system.h.
  mutable std::mutex hl_mu_;
  std::unique_ptr<HeavyLightClassifier> classifier_;
  DeferredDeltaStore deferred_;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_VIEW_MANAGER_H_
