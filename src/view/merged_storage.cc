#include "view/merged_storage.h"

#include <algorithm>
#include <numeric>

#include "engine/node.h"
#include "obs/metrics_registry.h"
#include "txn/lock_manager.h"
#include "view/view_manager.h"

namespace pjvm {

namespace {

/// Working-row equivalence classes under the view's join edges: two working
/// indices are equivalent when some chain of equi-join edges forces them
/// equal in every join result. The class containing the view's partitioning
/// attribute defines the merged cluster.
class WorkingUnionFind {
 public:
  explicit WorkingUnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

bool MergedViewStorage::Eligible(const SystemConfig& config,
                                 const BoundView& bound,
                                 MaintenanceMethod method,
                                 MaintenanceTiming timing) {
  return config.merged_ar_storage &&
         method == MaintenanceMethod::kAuxRelation &&
         timing == MaintenanceTiming::kImmediate && !bound.is_aggregate() &&
         bound.output_partition_col() >= 0;
}

MergedViewStorage::MergedViewStorage(ParallelSystem* sys,
                                     const BoundView& bound)
    : sys_(sys),
      view_name_(bound.def().name),
      lock_table_("__merged_" + bound.def().name),
      lock_id_(sys->catalog().NewId()),
      view_pcol_(bound.output_partition_col()) {
  // The partitioning attribute as a working-row index.
  const int pw = bound.output_indices()[bound.output_partition_col()];
  WorkingUnionFind uf(bound.working_width());
  for (const BoundEdge& e : bound.bound_edges()) {
    int li = *bound.WorkingIndex(e.left_base, e.left_col);
    int ri = *bound.WorkingIndex(e.right_base, e.right_col);
    uf.Union(li, ri);
  }
  const int cls = uf.Find(pw);
  // Every distinct (base, col) edge endpoint in the partition class becomes
  // a member, in deterministic (base, col) order for stable tags.
  std::set<std::pair<int, int>> endpoints;
  for (const BoundEdge& e : bound.bound_edges()) {
    if (uf.Find(*bound.WorkingIndex(e.left_base, e.left_col)) == cls) {
      endpoints.insert({e.left_base, e.left_col});
    }
    if (uf.Find(*bound.WorkingIndex(e.right_base, e.right_col)) == cls) {
      endpoints.insert({e.right_base, e.right_col});
    }
  }
  for (const auto& [base, col] : endpoints) {
    Member m;
    m.base_idx = base;
    m.source_table = bound.base_def(base).name;
    m.source_id = bound.base_def(base).id;
    m.col = col;
    m.preds = bound.base_preds(base);
    std::set<int> cols(bound.needed_cols(base).begin(),
                       bound.needed_cols(base).end());
    cols.insert(col);
    for (const BoundPred& p : m.preds) cols.insert(p.col);
    m.cols.assign(cols.begin(), cols.end());
    for (int c : bound.needed_cols(base)) {
      auto pos = std::lower_bound(m.cols.begin(), m.cols.end(), c);
      m.needed_pos.push_back(static_cast<int>(pos - m.cols.begin()));
    }
    m.tag = static_cast<uint8_t>(mergedkey::kSourceTagFirst + members_.size());
    members_.push_back(std::move(m));
  }
  trees_.reserve(sys_->num_nodes());
  for (int i = 0; i < sys_->num_nodes(); ++i) {
    trees_.push_back(std::make_unique<MergedTreeFragment>());
  }
}

bool MergedViewStorage::CoversBase(int base_idx, int col) const {
  for (const Member& m : members_) {
    if (m.base_idx == base_idx && m.col == col) return true;
  }
  return false;
}

Status MergedViewStorage::EnsureRange(uint64_t txn, int node,
                                      const Value& key) {
  if (txn == kAutoCommitTxnId) return Status::OK();
  std::string prefix = mergedkey::KeyPrefix(key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (txns_[txn].ranges.count({node, prefix}) > 0) return Status::OK();
  }
  // Lock before charge, and before any latch (lock-before-latch order): a
  // wait-die loser must leave no trace. One EXCLUSIVE lock serves every
  // probe and edit of the range — the probes of a maintenance transaction
  // are always followed by edits of the same range, so starting exclusive
  // avoids the forbidden shared->exclusive upgrade.
  if (sys_->config().enable_locking) {
    PJVM_RETURN_NOT_OK(sys_->locks().Acquire(
        txn, LockId::IndexKey(node, lock_id_, 0, key),
        LockMode::kExclusive));
  }
  sys_->cost().ChargeSearch(node);
  sys_->cost().ChargeDescent(node);
  range_ops_.fetch_add(1, std::memory_order_relaxed);
  static Counter* range_counter =
      MetricsRegistry::Global().counter("pjvm_merged_range_ops");
  range_counter->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  txns_[txn].ranges.insert({node, std::move(prefix)});
  return Status::OK();
}

Status MergedViewStorage::ApplyEdit(uint64_t txn, int node, const Value& key,
                                    uint8_t tag, const Row& row,
                                    bool is_insert) {
  PJVM_RETURN_NOT_OK(EnsureRange(txn, node, key));
  {
    NodeLatchGuard latch(*sys_->node(node), LatchMode::kExclusive);
    if (is_insert) {
      trees_[node]->InsertEntry(key, tag, Row{}, row);
    } else {
      Status st = trees_[node]->RemoveEntry(key, tag, Row{}, row);
      if (!st.ok()) {
        return Status::Internal("merged storage '" + lock_table_ +
                                "': missing entry for delete of " +
                                RowToString(row) + ": " + st.ToString());
      }
    }
  }
  if (txn != kAutoCommitTxnId) {
    std::lock_guard<std::mutex> lock(mu_);
    txns_[txn].journal.push_back(Edit{node, key, tag, row, is_insert});
  }
  return Status::OK();
}

Status MergedViewStorage::ProbeMember(
    uint64_t txn, int node, int base_idx, int col, const Value& key,
    const std::function<Status(const Row&)>& fn) {
  const Member* member = nullptr;
  for (const Member& m : members_) {
    if (m.base_idx == base_idx && m.col == col) {
      member = &m;
      break;
    }
  }
  if (member == nullptr) {
    return Status::InvalidArgument("merged storage '" + lock_table_ +
                                   "' has no member for base " +
                                   std::to_string(base_idx) + " col " +
                                   std::to_string(col));
  }
  PJVM_RETURN_NOT_OK(EnsureRange(txn, node, key));
  Status st = Status::OK();
  NodeLatchGuard latch(*sys_->node(node), LatchMode::kShared);
  trees_[node]->ScanKey(key, [&](uint8_t tag, const Row& row) {
    // Tags scan in order; stop once past the member's run.
    if (tag > member->tag) return false;
    if (tag < member->tag) return true;
    st = fn(ProjectRow(row, member->needed_pos));
    return st.ok();
  });
  return st;
}

Status MergedViewStorage::MirrorDelta(uint64_t txn, const DeltaBatch& delta) {
  for (const Member& m : members_) {
    if (m.source_table != delta.table) continue;
    // Deletes before inserts, mirroring the AR/GI structure-update order.
    for (const Row& row : delta.deletes) {
      if (!RowPassesPreds(row, m.preds)) continue;
      const Value& key = row[m.col];
      PJVM_RETURN_NOT_OK(ApplyEdit(txn, sys_->HomeNodeForKey(key), key, m.tag,
                                   ProjectRow(row, m.cols),
                                   /*is_insert=*/false));
    }
    for (const Row& row : delta.inserts) {
      if (!RowPassesPreds(row, m.preds)) continue;
      const Value& key = row[m.col];
      PJVM_RETURN_NOT_OK(ApplyEdit(txn, sys_->HomeNodeForKey(key), key, m.tag,
                                   ProjectRow(row, m.cols),
                                   /*is_insert=*/true));
    }
  }
  return Status::OK();
}

Status MergedViewStorage::ApplyViewEdit(uint64_t txn, int node, const Row& row,
                                        bool is_delete) {
  return ApplyEdit(txn, node, row[view_pcol_], mergedkey::kViewTag, row,
                   /*is_insert=*/!is_delete);
}

void MergedViewStorage::OnCommit(uint64_t txn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    txns_.erase(txn);
  }
  MetricsRegistry::Global()
      .gauge("pjvm_merged_bytes")
      ->Set(static_cast<double>(TreeBytes()));
}

void MergedViewStorage::OnAbort(uint64_t txn) {
  TxnState state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return;
    state = std::move(it->second);
    txns_.erase(it);
  }
  // Inverse edits in reverse order, while the transaction still holds its
  // range locks (the caller aborts the system transaction — releasing the
  // locks — only after this returns).
  for (auto it = state.journal.rbegin(); it != state.journal.rend(); ++it) {
    NodeLatchGuard latch(*sys_->node(it->node), LatchMode::kExclusive);
    if (it->was_insert) {
      trees_[it->node]->RemoveEntry(it->join_key, it->tag, Row{}, it->row)
          .Check();
    } else {
      trees_[it->node]->InsertEntry(it->join_key, it->tag, Row{}, it->row);
    }
  }
}

Status MergedViewStorage::RebuildFromHeaps() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    txns_.clear();
  }
  view_id_ = sys_->catalog().IdOf(view_name_);
  const int n = sys_->num_nodes();
  // Stage (dest, key, tag, row) entries source node by source node — member
  // rows live at their base's partition home, not the join key's — then load
  // each destination tree under its own exclusive latch. Never two latches
  // at once.
  struct Staged {
    Value key;
    uint8_t tag;
    Row row;
  };
  std::vector<std::vector<Staged>> staged(n);
  for (const Member& m : members_) {
    for (int i = 0; i < n; ++i) {
      NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
      const TableFragment* frag = sys_->node(i)->fragment(m.source_id);
      if (frag == nullptr) continue;
      frag->ForEach([&](LocalRowId, const Row& row) {
        if (!RowPassesPreds(row, m.preds)) return true;
        const Value& key = row[m.col];
        staged[sys_->HomeNodeForKey(key)].push_back(
            Staged{key, m.tag, ProjectRow(row, m.cols)});
        return true;
      });
    }
  }
  for (int i = 0; i < n; ++i) {
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
    const TableFragment* frag = sys_->node(i)->fragment(view_id_);
    if (frag == nullptr) continue;
    frag->ForEach([&](LocalRowId, const Row& row) {
      staged[sys_->HomeNodeForKey(row[view_pcol_])].push_back(
          Staged{row[view_pcol_], mergedkey::kViewTag, row});
      return true;
    });
  }
  for (int i = 0; i < n; ++i) {
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kExclusive);
    trees_[i]->Clear();
    for (Staged& s : staged[i]) {
      trees_[i]->InsertEntry(s.key, s.tag, Row{}, s.row);
    }
    PJVM_RETURN_NOT_OK(trees_[i]->CheckInvariants());
  }
  MetricsRegistry::Global()
      .gauge("pjvm_merged_bytes")
      ->Set(static_cast<double>(TreeBytes()));
  return Status::OK();
}

Status MergedViewStorage::CheckConsistent() const {
  const int n = sys_->num_nodes();
  // Expected per node: the bag of each tag's rows the heaps imply.
  std::vector<std::map<int, RowCounts>> expected(n);
  for (const Member& m : members_) {
    for (int i = 0; i < n; ++i) {
      NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
      const TableFragment* frag = sys_->node(i)->fragment(m.source_id);
      if (frag == nullptr) continue;
      frag->ForEach([&](LocalRowId, const Row& row) {
        if (!RowPassesPreds(row, m.preds)) return true;
        expected[sys_->HomeNodeForKey(row[m.col])][m.tag]
                [ProjectRow(row, m.cols)]++;
        return true;
      });
    }
  }
  for (int i = 0; i < n; ++i) {
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
    const TableFragment* frag = sys_->node(i)->fragment(view_id_);
    if (frag == nullptr) continue;
    frag->ForEach([&](LocalRowId, const Row& row) {
      expected[sys_->HomeNodeForKey(row[view_pcol_])][mergedkey::kViewTag]
              [row]++;
      return true;
    });
  }
  for (int i = 0; i < n; ++i) {
    std::map<int, RowCounts> actual;
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
    PJVM_RETURN_NOT_OK(trees_[i]->CheckInvariants());
    size_t entries = 0;
    trees_[i]->ForEach([&](uint8_t tag, const Row& row) {
      actual[tag][row]++;
      ++entries;
      return true;
    });
    if (actual != expected[i]) {
      return Status::Internal("merged storage '" + lock_table_ + "' node " +
                              std::to_string(i) +
                              " diverged from heap contents (" +
                              std::to_string(entries) + " entries)");
    }
  }
  return Status::OK();
}

size_t MergedViewStorage::TreeBytes() const {
  size_t bytes = 0;
  for (int i = 0; i < sys_->num_nodes(); ++i) {
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
    bytes += trees_[i]->byte_size();
  }
  return bytes;
}

uint64_t MergedViewStorage::range_ops() const {
  return range_ops_.load(std::memory_order_relaxed);
}

}  // namespace pjvm
