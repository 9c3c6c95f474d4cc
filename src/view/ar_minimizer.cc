#include "view/ar_minimizer.h"

#include <algorithm>
#include <map>

#include "net/network.h"

namespace pjvm {

namespace {

std::string ArName(const std::string& table, const std::string& column) {
  return "__ar_" + table + "_" + column;
}

}  // namespace

std::string ArRegistry::Fingerprint(const std::vector<BoundPred>& preds) {
  // Order-insensitive: sort rendered predicates.
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const BoundPred& p : preds) {
    parts.push_back(std::to_string(p.col) + PredOpToString(p.op) +
                    p.constant.ToString() +
                    ValueTypeToString(p.constant.type()));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& s : parts) out += s + "&";
  return out;
}

bool ArRegistry::PassesPreds(const Row& full_row,
                             const std::vector<BoundPred>& preds) {
  for (const BoundPred& bp : preds) {
    SelectionPred pred;
    pred.op = bp.op;
    pred.constant = bp.constant;
    if (!pred.Eval(full_row[bp.col])) return false;
  }
  return true;
}

Status ArRegistry::Require(const std::string& table, int col,
                           const std::vector<int>& needed_cols,
                           const std::vector<BoundPred>& preds) {
  ++refs_[{table, col}];
  auto it = entries_.find({table, col});
  if (it == entries_.end()) {
    PJVM_ASSIGN_OR_RETURN(const TableDef* base, sys_->catalog().Get(table));
    Entry entry;
    entry.base_table = table;
    entry.col = col;
    entry.ar_table = ArName(table, base->schema.column(col).name);
    std::set<int> cols(needed_cols.begin(), needed_cols.end());
    cols.insert(col);
    for (const BoundPred& p : preds) cols.insert(p.col);
    entry.cols.assign(cols.begin(), cols.end());
    entry.filtered = !preds.empty();
    entry.preds = preds;
    entry.fingerprint = Fingerprint(preds);
    PJVM_RETURN_NOT_OK(Build(entry));
    entries_.emplace(std::make_pair(table, col), std::move(entry));
    return Status::OK();
  }
  Entry& entry = it->second;
  std::set<int> want(entry.cols.begin(), entry.cols.end());
  for (int c : needed_cols) want.insert(c);
  bool widen = want.size() != entry.cols.size();
  bool generalize =
      entry.filtered && entry.fingerprint != Fingerprint(preds);
  if (!widen && !generalize) return Status::OK();
  std::vector<int> new_cols(want.begin(), want.end());
  bool filtered = entry.filtered && !generalize;
  return Rebuild(entry, new_cols,
                 filtered, filtered ? entry.preds : std::vector<BoundPred>{});
}

Status ArRegistry::Build(Entry& entry) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* base,
                        sys_->catalog().Get(entry.base_table));
  TableDef def;
  def.name = entry.ar_table;
  def.schema = base->schema.Project(entry.cols);
  def.kind = TableKind::kAuxiliary;
  const std::string& col_name = base->schema.column(entry.col).name;
  def.partition = PartitionSpec::Hash(col_name);
  // "We maintain a clustered index I_A on A.c for AR_A."
  def.indexes.push_back(IndexSpec{col_name, /*clustered=*/true});
  PJVM_RETURN_NOT_OK(sys_->CreateTable(def));
  // Backfill from the base table (bulk load; routed by hash, no maintenance
  // metering intended — callers reset the cost tracker after setup).
  for (int i = 0; i < sys_->num_nodes(); ++i) {
    // Copy the qualifying rows out under node i's latch, then insert with the
    // latch released: Insert latches the AR row's *home* node, and holding one
    // node's latch while taking another's would invert latch order.
    std::vector<Row> rows;
    {
      NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
      const TableFragment* frag = sys_->node(i)->fragment(entry.base_table);
      frag->ForEach([&](LocalRowId, const Row& row) {
        if (entry.filtered && !PassesPreds(row, entry.preds)) return true;
        rows.push_back(ProjectRow(row, entry.cols));
        return true;
      });
    }
    for (Row& row : rows) {
      PJVM_RETURN_NOT_OK(sys_->Insert(entry.ar_table, std::move(row)));
    }
  }
  return Status::OK();
}

Status ArRegistry::Rebuild(Entry& entry, const std::vector<int>& cols,
                           bool filtered, const std::vector<BoundPred>& preds) {
  PJVM_RETURN_NOT_OK(sys_->DropTable(entry.ar_table));
  entry.cols = cols;
  entry.filtered = filtered;
  entry.preds = preds;
  entry.fingerprint = Fingerprint(preds);
  return Build(entry);
}

Status ArRegistry::Release(const std::string& table, int col) {
  auto ref = refs_.find({table, col});
  if (ref == refs_.end() || ref->second <= 0) {
    return Status::NotFound("no auxiliary relation reference for " + table +
                            " column " + std::to_string(col));
  }
  if (--ref->second > 0) return Status::OK();
  refs_.erase(ref);
  auto it = entries_.find({table, col});
  if (it != entries_.end()) {
    PJVM_RETURN_NOT_OK(sys_->DropTable(it->second.ar_table));
    entries_.erase(it);
  }
  return Status::OK();
}

Result<ArAccess> ArRegistry::Access(const std::string& table, int col,
                                    const std::vector<int>& needed_cols,
                                    const std::vector<BoundPred>& preds) const {
  auto it = entries_.find({table, col});
  if (it == entries_.end()) {
    return Status::NotFound("no auxiliary relation for " + table + " column " +
                            std::to_string(col));
  }
  const Entry& entry = it->second;
  auto pos_of = [&entry](int full_col) -> int {
    auto pos = std::lower_bound(entry.cols.begin(), entry.cols.end(), full_col);
    if (pos == entry.cols.end() || *pos != full_col) return -1;
    return static_cast<int>(pos - entry.cols.begin());
  };
  ArAccess access;
  access.table = entry.ar_table;
  access.probe_col = pos_of(col);
  for (int c : needed_cols) {
    int p = pos_of(c);
    if (p < 0) {
      return Status::Internal("AR '" + entry.ar_table +
                              "' does not cover needed column " +
                              std::to_string(c) + "; Require() it first");
    }
    access.needed_pos.push_back(p);
  }
  // If the AR is filtered with exactly the consumer's predicates, nothing
  // remains to check at probe time; otherwise remap them to AR positions.
  if (!(entry.filtered && entry.fingerprint == Fingerprint(preds))) {
    for (const BoundPred& bp : preds) {
      int p = pos_of(bp.col);
      if (p < 0) {
        return Status::Internal("AR '" + entry.ar_table +
                                "' does not cover predicate column");
      }
      BoundPred remapped = bp;
      remapped.col = p;
      access.residual_preds.push_back(remapped);
    }
  }
  return access;
}

Result<size_t> ShipStructureDelta(ParallelSystem* sys, uint64_t txn,
                                  const DeltaBatch& delta,
                                  const std::string& table, int key_col,
                                  const StructureRowFn& make) {
  size_t writes = 0;
  auto apply = [&](const std::vector<Row>& rows,
                   const std::vector<GlobalRowId>& gids,
                   bool is_delete) -> Status {
    for (size_t i = 0; i < rows.size(); ++i) {
      const GlobalRowId gid = i < gids.size() ? gids[i] : GlobalRowId{};
      std::optional<Row> row = make(rows[i], gid);
      if (!row.has_value()) continue;
      int dest = sys->HomeNodeForKey(rows[i][key_col]);
      int from = gid.node >= 0 ? gid.node : dest;
      if (from != dest) {
        PJVM_RETURN_NOT_OK(
            sys->network().Send(from, dest, HopBytes(table, {&*row, 1})));
      }
      Node* node = sys->node(dest);
      if (is_delete) {
        PJVM_RETURN_NOT_OK(node->DeleteExact(txn, table, *row));
      } else {
        PJVM_RETURN_NOT_OK(node->Insert(txn, table, std::move(*row)).status());
      }
      ++writes;
    }
    return Status::OK();
  };
  PJVM_RETURN_NOT_OK(apply(delta.deletes, delta.delete_gids, true));
  PJVM_RETURN_NOT_OK(apply(delta.inserts, delta.insert_gids, false));
  return writes;
}

Result<size_t> ArRegistry::ApplyDelta(uint64_t txn, const DeltaBatch& delta) {
  size_t writes = 0;
  for (auto& [key, entry] : entries_) {
    if (entry.base_table != delta.table) continue;
    PJVM_ASSIGN_OR_RETURN(
        size_t n,
        ShipStructureDelta(
            sys_, txn, delta, entry.ar_table, entry.col,
            [&entry](const Row& row, GlobalRowId) -> std::optional<Row> {
              if (entry.filtered && !PassesPreds(row, entry.preds)) {
                return std::nullopt;
              }
              return ProjectRow(row, entry.cols);
            }));
    writes += n;
  }
  return writes;
}

size_t ArRegistry::StorageBytes() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    bytes += sys_->TableBytes(entry.ar_table);
  }
  return bytes;
}

size_t ArRegistry::UnminimizedBytes() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    bytes += sys_->TableBytes(entry.base_table);
  }
  return bytes;
}

std::vector<std::string> ArRegistry::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [key, entry] : entries_) names.push_back(entry.ar_table);
  return names;
}

Status ArRegistry::CheckConsistent() const {
  for (const auto& [key, entry] : entries_) {
    // Expected contents: pi(sigma(base)).
    std::map<std::string, int> expected;
    for (const Row& row : sys_->ScanAll(entry.base_table)) {
      if (entry.filtered && !PassesPreds(row, entry.preds)) continue;
      expected[RowToString(ProjectRow(row, entry.cols))]++;
    }
    std::map<std::string, int> actual;
    size_t misplaced = 0;
    for (int i = 0; i < sys_->num_nodes(); ++i) {
      NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
      const TableFragment* frag = sys_->node(i)->fragment(entry.ar_table);
      int probe_pos = -1;
      {
        auto pos =
            std::lower_bound(entry.cols.begin(), entry.cols.end(), entry.col);
        probe_pos = static_cast<int>(pos - entry.cols.begin());
      }
      int node = i;
      frag->ForEach([&](LocalRowId, const Row& row) {
        actual[RowToString(row)]++;
        if (sys_->HomeNodeForKey(row[probe_pos]) != node) ++misplaced;
        return true;
      });
    }
    if (expected != actual) {
      return Status::Internal("AR '" + entry.ar_table +
                              "' diverged from pi(sigma(" + entry.base_table +
                              "))");
    }
    if (misplaced > 0) {
      return Status::Internal("AR '" + entry.ar_table + "' has " +
                              std::to_string(misplaced) +
                              " rows on the wrong node");
    }
  }
  return Status::OK();
}

}  // namespace pjvm
