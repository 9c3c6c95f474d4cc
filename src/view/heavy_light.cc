#include "view/heavy_light.h"

#include <algorithm>

#include "common/row.h"
#include "obs/metrics_registry.h"
#include "storage/stats.h"

namespace pjvm {

namespace {

/// Buckets per fragment histogram. Equi-depth never splits a value, so hot
/// keys are exact at any bucket count; 16 keeps the light tail's estimates
/// reasonable at bench scales.
constexpr int kHistogramBuckets = 16;

/// A key is promoted heavy at this multiple of its column's average fanout
/// and demoted at half of it (hysteresis).
constexpr double kPromoteRatio = 4.0;

std::string HeavyKeyId(const std::string& table, int col, const Value& key) {
  return table + "#" + std::to_string(col) + "#" + key.ToString();
}

}  // namespace

// ------------------------------------------------------ HeavyLightClassifier

HeavyLightClassifier::ColumnStatsEntry& HeavyLightClassifier::StatsFor(
    const std::string& table, int col) {
  auto it = stats_.find({table, col});
  if (it != stats_.end()) return it->second;
  ColumnStatsEntry entry;
  std::vector<ColumnStats> parts;
  const TableId id = sys_->catalog().IdOf(table);
  for (int n = 0; n < sys_->num_nodes(); ++n) {
    Node* node = sys_->node(n);
    const TableFragment* frag = node->fragment(id);
    if (frag == nullptr) continue;
    // Statistics read the live fragment; the shared latch keeps concurrent
    // page writers out.
    NodeLatchGuard latch(*node, LatchMode::kShared);
    entry.fragments.push_back(
        BuildFragmentHistogram(*frag, col, kHistogramBuckets));
    parts.push_back(ComputeColumnStats(*frag, col));
  }
  // Table-level average fanout. Summing per-fragment distinct counts (as
  // ColumnStats::operator+= does) gives an upper bound that is 1x..F x
  // inflated when the table is NOT partitioned on `col` (every fragment sees
  // most keys), which deflates the average and over-classifies uniform keys
  // heavy. Classification instead uses the max fragment distinct count:
  // exact in that common case, and a conservative under-count (fewer heavy
  // keys, never a wrong view) when the table IS partitioned on the join
  // column.
  size_t rows = 0;
  size_t distinct = 0;
  for (const ColumnStats& p : parts) {
    rows += p.row_count;
    distinct = std::max(distinct, p.distinct_count);
  }
  entry.avg_fanout =
      distinct == 0
          ? 1.0
          : std::max(1.0, static_cast<double>(rows) /
                              static_cast<double>(distinct));
  return stats_.emplace(std::make_pair(table, col), std::move(entry))
      .first->second;
}

void HeavyLightClassifier::RecordOps(const std::string& table, size_t ops) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t& since = ops_since_build_[table];
  since += ops;
  if (since < static_cast<size_t>(stats_refresh_ops_)) return;
  since = 0;
  // Drop every cached column of the table; the next estimate rebuilds from
  // the fragments as they are *now*, so a drifted hot key reclassifies.
  for (auto it = stats_.begin(); it != stats_.end();) {
    if (it->first.first == table) {
      it = stats_.erase(it);
    } else {
      ++it;
    }
  }
  MetricsRegistry::Global().counter("pjvm_stats_rebuilds")->Increment();
}

double HeavyLightClassifier::EstimateEq(const std::string& table, int col,
                                        const Value& key) {
  std::lock_guard<std::mutex> lock(mu_);
  double rows = 0.0;
  for (const EquiDepthHistogram& hist : StatsFor(table, col).fragments) {
    rows += hist.EstimateEq(key);
  }
  return rows;
}

double HeavyLightClassifier::AvgFanout(const std::string& table, int col) {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsFor(table, col).avg_fanout;
}

bool HeavyLightClassifier::HeavyKey(const std::string& table, int col,
                                    const Value& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const ColumnStatsEntry& stats = StatsFor(table, col);
  double est = 0.0;
  for (const EquiDepthHistogram& hist : stats.fragments) {
    est += hist.EstimateEq(key);
  }
  double ratio = est / stats.avg_fanout;
  std::string id = HeavyKeyId(table, col, key);
  bool was_heavy = heavy_.count(id) > 0;
  // Hysteresis: promote at the full ratio, demote at half of it, so a key
  // sitting exactly on the boundary keeps its regime.
  bool now_heavy =
      was_heavy ? ratio >= kPromoteRatio / 2 : ratio >= kPromoteRatio;
  if (now_heavy != was_heavy) {
    if (now_heavy) {
      heavy_.insert(id);
    } else {
      heavy_.erase(id);
    }
    MetricsRegistry::Global()
        .gauge("pjvm_heavy_keys_live")
        ->Set(static_cast<double>(heavy_.size()));
  }
  return now_heavy;
}

bool HeavyLightClassifier::IsHeavy(const BoundView& bound, int updated_base,
                                   const Row& row) {
  for (const BoundEdge& edge : bound.bound_edges()) {
    int my_col, other_base, other_col;
    if (edge.left_base == updated_base) {
      my_col = edge.left_col;
      other_base = edge.right_base;
      other_col = edge.right_col;
    } else if (edge.right_base == updated_base) {
      my_col = edge.right_col;
      other_base = edge.left_base;
      other_col = edge.left_col;
    } else {
      continue;
    }
    if (HeavyKey(bound.base_def(other_base).name, other_col, row[my_col])) {
      return true;
    }
  }
  return false;
}

size_t HeavyLightClassifier::heavy_keys_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heavy_.size();
}

// -------------------------------------------------------- DeferredDeltaStore

bool DeferredDeltaStore::Append(const std::string& view, int base_idx,
                                bool is_delete, Row row, GlobalRowId gid) {
  Buffer& buf = buffers_[view];
  if (buf.rows() == 0) buf.base_idx = base_idx;
  std::vector<Row>& opposite = is_delete ? buf.inserts : buf.deletes;
  std::vector<GlobalRowId>& opposite_gids =
      is_delete ? buf.insert_gids : buf.delete_gids;
  for (size_t i = 0; i < opposite.size(); ++i) {
    if (opposite[i] == row) {
      opposite.erase(opposite.begin() + i);
      opposite_gids.erase(opposite_gids.begin() + i);
      cancelled_ += 2;  // Both the buffered row and this one vanish.
      return true;
    }
  }
  std::vector<Row>& same = is_delete ? buf.deletes : buf.inserts;
  std::vector<GlobalRowId>& same_gids =
      is_delete ? buf.delete_gids : buf.insert_gids;
  same.push_back(std::move(row));
  same_gids.push_back(gid);
  return false;
}

const DeferredDeltaStore::Buffer* DeferredDeltaStore::Find(
    const std::string& view) const {
  auto it = buffers_.find(view);
  return it == buffers_.end() ? nullptr : &it->second;
}

RowCounts DeferredDeltaStore::SignedCounts(const std::string& view,
                                           bool deletes) const {
  RowCounts counts;
  const Buffer* buf = Find(view);
  if (buf == nullptr) return counts;
  for (const Row& row : deletes ? buf->deletes : buf->inserts) ++counts[row];
  return counts;
}

size_t DeferredDeltaStore::rows(const std::string& view) const {
  const Buffer* buf = Find(view);
  return buf == nullptr ? 0 : buf->rows();
}

size_t DeferredDeltaStore::total_rows() const {
  size_t total = 0;
  for (const auto& [name, buf] : buffers_) total += buf.rows();
  return total;
}

void DeferredDeltaStore::Clear(const std::string& view) {
  buffers_.erase(view);
}

}  // namespace pjvm
