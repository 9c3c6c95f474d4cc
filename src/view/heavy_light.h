#ifndef PJVM_VIEW_HEAVY_LIGHT_H_
#define PJVM_VIEW_HEAVY_LIGHT_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engine/system.h"
#include "storage/histogram.h"
#include "storage/row_id.h"
#include "view/view_def.h"

namespace pjvm {

/// Maintenance rows per table between the ViewManager classifier's
/// statistics rebuilds.
inline constexpr int kStatsRefreshOps = 1024;

/// \brief Histogram-backed heavy/light key classifier (Abo-Khamis et al.:
/// maintain queries under updates by partitioning keys into a heavy and a
/// light regime).
///
/// A delta row is *heavy* for a view when some incident join edge's
/// neighbour column matches the row's key value with estimated fanout at
/// least kPromoteRatio (4) times that column's average fanout — i.e. the row
/// will touch a disproportionate share of the join, so per-tuple eager
/// maintenance pays the hot-key lock-and-probe cost over and over.
/// Estimates come from per-fragment equi-depth histograms (exact for hot
/// keys: Build never splits a value across buckets), merged per column.
///
/// Classification is *hysteretic*: a key already heavy stays heavy until its
/// ratio drops below kPromoteRatio / 2, so a key oscillating at the boundary
/// does not thrash between regimes (the state lives per (table, column,
/// key) and is advisory — either classification maintains correctly).
///
/// Statistics freshness: histograms are built lazily per (table, column) on
/// first use and invalidated when RecordOps observes `stats_refresh_ops`
/// maintenance rows applied to the table since the last build (building
/// only once left a sustained Zipf stream scored against yesterday's
/// distribution).
///
/// Thread safety: internally locked; histogram builds read the live
/// fragments under shared node latches.
class HeavyLightClassifier {
 public:
  HeavyLightClassifier(ParallelSystem* sys, int stats_refresh_ops)
      : sys_(sys), stats_refresh_ops_(stats_refresh_ops) {}

  /// Records `ops` maintenance rows applied to `table`; crossing the
  /// refresh threshold drops the table's cached statistics (rebuilt lazily).
  void RecordOps(const std::string& table, size_t ops);

  /// True when `row` (a full row of base `updated_base`) is heavy for
  /// `bound`: some incident bound edge's neighbour column matches one of the
  /// row's key values at heavy fanout.
  bool IsHeavy(const BoundView& bound, int updated_base, const Row& row);

  /// Classification of one (neighbour table, neighbour column, key) with
  /// hysteresis state update. Exposed for tests.
  bool HeavyKey(const std::string& table, int col, const Value& key);

  /// Estimated rows of `table` whose `col` equals `key`, summed over the
  /// per-fragment histograms.
  double EstimateEq(const std::string& table, int col, const Value& key);
  /// Average rows per distinct value of `table`.`col` (>= 1 when non-empty).
  double AvgFanout(const std::string& table, int col);

  /// Number of keys currently classified heavy (mirrors the
  /// pjvm_heavy_keys_live gauge).
  size_t heavy_keys_live() const;

 private:
  struct ColumnStatsEntry {
    std::vector<EquiDepthHistogram> fragments;
    double avg_fanout = 1.0;
  };

  ColumnStatsEntry& StatsFor(const std::string& table, int col);

  mutable std::mutex mu_;
  ParallelSystem* sys_;
  int stats_refresh_ops_;
  std::map<std::pair<std::string, int>, ColumnStatsEntry> stats_;
  std::map<std::string, size_t> ops_since_build_;
  std::set<std::string> heavy_;  // "table#col#key" currently heavy.
};

/// \brief Per-view buffers of deferred heavy-key delta rows.
///
/// Each buffer holds signed full base rows (with their arrival gids) for
/// exactly one base of the view — ViewManager folds the buffer before
/// admitting a delta on any *other* base, which is what keeps a fold's join
/// against the neighbours' current state equal to the eager result.
///
/// Append cancels opposite-sign churn by content: a delete matching a
/// buffered insert annihilates it (and vice versa), so an insert/delete pair
/// within the deferral window never touches the view at all. Cancelling by
/// content is exact here because view derivations depend only on row
/// content, and the neighbours are frozen for the buffer's lifetime.
///
/// Externally synchronized: ViewManager guards every access with its
/// heavy/light mutex.
class DeferredDeltaStore {
 public:
  struct Buffer {
    int base_idx = -1;
    std::vector<Row> inserts;
    std::vector<GlobalRowId> insert_gids;
    std::vector<Row> deletes;
    std::vector<GlobalRowId> delete_gids;

    size_t rows() const { return inserts.size() + deletes.size(); }
  };

  /// Buffers one signed row for `view` (creating the buffer with `base_idx`
  /// if empty). Returns true when the row cancelled a buffered opposite-sign
  /// row instead of growing the buffer.
  bool Append(const std::string& view, int base_idx, bool is_delete, Row row,
              GlobalRowId gid);

  /// nullptr when the view has no (possibly empty) buffer.
  const Buffer* Find(const std::string& view) const;

  /// Multiplicity of the view's buffered rows of one sign; used by the
  /// router to match deletes against buffered inserts.
  RowCounts SignedCounts(const std::string& view, bool deletes) const;

  size_t rows(const std::string& view) const;
  size_t total_rows() const;
  /// Rows annihilated by opposite-sign cancellation since construction.
  size_t cancelled() const { return cancelled_; }

  void Clear(const std::string& view);

 private:
  std::map<std::string, Buffer> buffers_;
  size_t cancelled_ = 0;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_HEAVY_LIGHT_H_
