#ifndef PJVM_VIEW_EXPLAIN_H_
#define PJVM_VIEW_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "view/maintainer.h"

namespace pjvm {

/// \brief EXPLAIN ANALYZE for one maintenance transaction: where the work
/// went, node by node.
///
/// Filled by ViewManager::ApplyDelta from a per-transaction
/// CostTracker::TxnMeter, so every I/O number, message and byte count,
/// escalation and escrow op is this transaction's alone even when other
/// maintenance transactions run concurrently — the per-transaction analogue
/// of the paper's Section 3.3 measurement, which isolates one maintenance
/// step rather than reading aggregate totals. `nodes_touched` is the
/// per-transaction count the paper's locality claims are about: all L nodes
/// for the naive method, a small constant for auxiliary relations, 1 + K
/// for global indexes.
struct MaintenanceAnalysis {
  std::string table;          ///< Updated base table.
  size_t base_inserts = 0;    ///< Delta rows inserted into the base.
  size_t base_deletes = 0;    ///< Delta rows deleted from the base.

  /// Per-node counter deltas over the whole transaction (base update,
  /// structure maintenance, delta join, view application).
  std::vector<NodeCounters> per_node;
  CostWeights weights;

  double total_workload = 0.0;  ///< Sum over nodes of weighted I/O (TW).
  double response_time = 0.0;   ///< Max over nodes of weighted I/O.
  uint64_t messages = 0;        ///< Interconnect messages (incl. self-sends).
  uint64_t bytes_sent = 0;
  int nodes_touched = 0;        ///< Nodes with any I/O or sends this txn.
  double wall_ms = 0.0;

  /// Retry visibility: how many attempts the bounded retry loop took for
  /// this statement (1 = first try committed), the total backoff slept
  /// between attempts, and each failed attempt's abort reason in order.
  int attempts = 1;
  uint64_t backoff_ns = 0;
  std::vector<std::string> attempt_aborts;

  /// Lock escalations performed by the committed attempt (bulk deltas whose
  /// per-fragment key-lock footprint crossed lock_escalation_threshold), and
  /// how many key-lock entries the fragment locks replaced.
  uint64_t escalations = 0;
  uint64_t lock_entries_reclaimed = 0;

  /// Escrow (value-lock) aggregate maintenance by the committed attempt
  /// (SystemConfig::escrow_aggregates): group increments applied in place
  /// under V locks, and V→X upgrades taken at group birth/death edges.
  uint64_t escrow_ops = 0;
  uint64_t vlock_upgrades = 0;

  /// Aggregate maintainer-side counts (rows, probes, structure writes).
  MaintenanceReport report;

  /// One entry per immediately-maintained view this delta reached.
  struct ViewPhase {
    std::string view;
    MaintenanceMethod method = MaintenanceMethod::kNaive;
    double wall_ms = 0.0;
    size_t rows_inserted = 0;
    size_t rows_deleted = 0;
    size_t probes = 0;
    /// Nodes that did work during this view's maintenance alone.
    int nodes_touched = 0;
  };
  std::vector<ViewPhase> views;

  /// The human-readable EXPLAIN ANALYZE rendering: a per-node table with
  /// the write breakdown, then per-view phase lines and the summary.
  std::string ToString() const;
  std::string ToJson() const;
};

/// Nodes with any activity (I/O or sends) in a per-node counter diff.
int CountTouchedNodes(const std::vector<NodeCounters>& deltas);

}  // namespace pjvm

#endif  // PJVM_VIEW_EXPLAIN_H_
