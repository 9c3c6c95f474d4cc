#include "view/structure_registry.h"

#include <algorithm>
#include <set>

#include "net/network.h"

namespace pjvm {

std::string StructureRegistry::Fingerprint(
    const std::vector<BoundPred>& preds) {
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

std::optional<Row> StructureRegistry::RowFor(const Entry& entry,
                                             const Row& base_row,
                                             GlobalRowId gid) {
  if (entry.method == MaintenanceMethod::kGlobalIndex) {
    return Row{base_row[entry.col], Value{static_cast<int64_t>(gid.node)},
               Value{static_cast<int64_t>(gid.lrid)}};
  }
  if (entry.filtered && !RowPassesPreds(base_row, entry.preds)) {
    return std::nullopt;
  }
  return ProjectRow(base_row, entry.cols);
}

Status StructureRegistry::Require(MaintenanceMethod method,
                                  const std::string& table, int col,
                                  const std::vector<int>& needed_cols,
                                  const std::vector<BoundPred>& preds) {
  if (method == MaintenanceMethod::kNaive) {
    return Status::InvalidArgument("the naive method keeps no structure");
  }
  const Key key{method, table, col};
  ++refs_[key];
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    PJVM_ASSIGN_OR_RETURN(const TableDef* base, sys_->catalog().Get(table));
    const std::string& col_name = base->schema.column(col).name;
    Entry entry;
    entry.method = method;
    entry.base_table = table;
    entry.col = col;
    if (method == MaintenanceMethod::kGlobalIndex) {
      entry.table = "__gi_" + table + "_" + col_name;
    } else {
      entry.table = "__ar_" + table + "_" + col_name;
      std::set<int> cols(needed_cols.begin(), needed_cols.end());
      cols.insert(col);
      for (const BoundPred& p : preds) cols.insert(p.col);
      entry.cols.assign(cols.begin(), cols.end());
      entry.filtered = !preds.empty();
      entry.preds = preds;
      entry.fingerprint = Fingerprint(preds);
    }
    PJVM_RETURN_NOT_OK(Build(entry));
    entries_.emplace(key, std::move(entry));
    return Status::OK();
  }
  Entry& entry = it->second;
  if (method == MaintenanceMethod::kGlobalIndex) return Status::OK();
  // A shared AR widens to a new consumer's columns, and generalizes to
  // unfiltered when the consumer's predicates differ.
  std::set<int> want(entry.cols.begin(), entry.cols.end());
  for (int c : needed_cols) want.insert(c);
  bool widen = want.size() != entry.cols.size();
  bool generalize = entry.filtered && entry.fingerprint != Fingerprint(preds);
  if (!widen && !generalize) return Status::OK();
  PJVM_RETURN_NOT_OK(sys_->DropTable(entry.table));
  entry.cols.assign(want.begin(), want.end());
  if (generalize) {
    entry.filtered = false;
    entry.preds.clear();
    entry.fingerprint = Fingerprint(entry.preds);
  }
  return Build(entry);
}

Status StructureRegistry::Build(Entry& entry) {
  PJVM_ASSIGN_OR_RETURN(const TableDef* base,
                        sys_->catalog().Get(entry.base_table));
  TableDef def;
  def.name = entry.table;
  if (entry.method == MaintenanceMethod::kGlobalIndex) {
    entry.key_pos = 0;
    def.schema = Schema({{"key", base->schema.column(entry.col).type},
                         {"node", ValueType::kInt64},
                         {"lrid", ValueType::kInt64}});
    def.kind = TableKind::kGlobalIndex;
  } else {
    entry.key_pos = static_cast<int>(
        std::lower_bound(entry.cols.begin(), entry.cols.end(), entry.col) -
        entry.cols.begin());
    def.schema = base->schema.Project(entry.cols);
    def.kind = TableKind::kAuxiliary;
  }
  const std::string& key_name = def.schema.column(entry.key_pos).name;
  def.partition = PartitionSpec::Hash(key_name);
  // "We maintain a clustered index I_A on A.c for AR_A." A GI's posting list
  // lives together too: probing it is one SEARCH with no per-item fetches.
  def.indexes.push_back(IndexSpec{key_name, /*clustered=*/true});
  PJVM_RETURN_NOT_OK(sys_->CreateTable(def));
  entry.id = sys_->catalog().IdOf(entry.table);
  entry.base_id = base->id;
  // Backfill from the base table (bulk load; routed by hash, no maintenance
  // metering intended — callers reset the cost tracker after setup). Each
  // node's rows are copied out under its own latch and inserted with every
  // latch released: a structure row's home node latches itself, and holding
  // one node's latch while taking another's would invert latch order.
  std::vector<Row> rows;
  for (int i = 0; i < sys_->num_nodes(); ++i) {
    NodeLatchGuard latch(*sys_->node(i), LatchMode::kShared);
    sys_->node(i)->fragment(entry.base_id)->ForEach(
        [&](LocalRowId lrid, const Row& row) {
          std::optional<Row> out = RowFor(entry, row, GlobalRowId{i, lrid});
          if (out.has_value()) rows.push_back(std::move(*out));
          return true;
        });
  }
  return sys_->InsertMany(entry.table, std::move(rows));
}

Status StructureRegistry::Release(MaintenanceMethod method,
                                  const std::string& table, int col) {
  const Key key{method, table, col};
  auto ref = refs_.find(key);
  if (ref == refs_.end() || ref->second <= 0) {
    return Status::NotFound(std::string("no ") +
                            MaintenanceMethodToString(method) +
                            " structure reference for " + table + " column " +
                            std::to_string(col));
  }
  if (--ref->second > 0) return Status::OK();
  refs_.erase(ref);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    PJVM_RETURN_NOT_OK(sys_->DropTable(it->second.table));
    entries_.erase(it);
  }
  return Status::OK();
}

Result<ArAccess> StructureRegistry::Access(
    const std::string& table, int col, const std::vector<int>& needed_cols,
    const std::vector<BoundPred>& preds) const {
  auto it = entries_.find({MaintenanceMethod::kAuxRelation, table, col});
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
  access.table = entry.table;
  access.id = entry.id;
  access.probe_col = entry.key_pos;
  for (int c : needed_cols) {
    int p = pos_of(c);
    if (p < 0) {
      return Status::Internal("AR '" + entry.table +
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
        return Status::Internal("AR '" + entry.table +
                                "' does not cover predicate column");
      }
      BoundPred remapped = bp;
      remapped.col = p;
      access.residual_preds.push_back(remapped);
    }
  }
  return access;
}

Result<TableId> StructureRegistry::GlobalIndex(const std::string& table,
                                               int col) const {
  auto it = entries_.find({MaintenanceMethod::kGlobalIndex, table, col});
  if (it == entries_.end()) {
    return Status::NotFound("no global index for " + table + " column " +
                            std::to_string(col));
  }
  return it->second.id;
}

Result<size_t> StructureRegistry::ApplyDelta(uint64_t txn,
                                             const DeltaBatch& delta) {
  size_t writes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.base_table != delta.table) continue;
    if (entry.method == MaintenanceMethod::kGlobalIndex &&
        (delta.deletes.size() != delta.delete_gids.size() ||
         delta.inserts.size() != delta.insert_gids.size())) {
      return Status::InvalidArgument(
          "global index maintenance requires one gid per delta row");
    }
    auto apply = [&](const std::vector<Row>& rows,
                     const std::vector<GlobalRowId>& gids,
                     bool is_delete) -> Status {
      for (size_t i = 0; i < rows.size(); ++i) {
        const GlobalRowId gid = i < gids.size() ? gids[i] : GlobalRowId{};
        std::optional<Row> row = RowFor(entry, rows[i], gid);
        if (!row.has_value()) continue;
        int dest = sys_->HomeNodeForKey(rows[i][entry.col]);
        int from = gid.node >= 0 ? gid.node : dest;
        if (from != dest) {
          PJVM_RETURN_NOT_OK(sys_->network().Send(
              from, dest, HopBytes(entry.table, {&*row, 1})));
        }
        Node* node = sys_->node(dest);
        if (is_delete) {
          PJVM_RETURN_NOT_OK(node->DeleteExact(txn, entry.id, *row));
        } else {
          PJVM_RETURN_NOT_OK(
              node->Insert(txn, entry.id, std::move(*row)).status());
        }
        ++writes;
      }
      return Status::OK();
    };
    PJVM_RETURN_NOT_OK(apply(delta.deletes, delta.delete_gids, true));
    PJVM_RETURN_NOT_OK(apply(delta.inserts, delta.insert_gids, false));
  }
  return writes;
}

Status StructureRegistry::RebuildGlobalIndexes() {
  for (auto& [key, entry] : entries_) {
    if (entry.method != MaintenanceMethod::kGlobalIndex) continue;
    PJVM_RETURN_NOT_OK(sys_->DropTable(entry.table));
    PJVM_RETURN_NOT_OK(Build(entry));
  }
  return Status::OK();
}

size_t StructureRegistry::StorageBytes(MaintenanceMethod method) const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.method == method) bytes += sys_->TableBytes(entry.table);
  }
  return bytes;
}

size_t StructureRegistry::UnminimizedBytes() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.method == MaintenanceMethod::kAuxRelation) {
      bytes += sys_->TableBytes(entry.base_table);
    }
  }
  return bytes;
}

std::vector<std::string> StructureRegistry::TableNames(
    MaintenanceMethod method) const {
  std::vector<std::string> names;
  for (const auto& [key, entry] : entries_) {
    if (entry.method == method) names.push_back(entry.table);
  }
  return names;
}

Status StructureRegistry::CheckConsistent() const {
  for (const auto& [key, entry] : entries_) {
    // Expected contents: RowFor of every live base row at its (node, lrid).
    RowCounts expected;
    RowCounts actual;
    size_t misplaced = 0;
    for (int i = 0; i < sys_->num_nodes(); ++i) {
      const Node& node = *sys_->node(i);
      NodeLatchGuard latch(node, LatchMode::kShared);
      node.fragment(entry.base_id)
          ->ForEach([&](LocalRowId lrid, const Row& row) {
            std::optional<Row> out = RowFor(entry, row, GlobalRowId{i, lrid});
            if (out.has_value()) expected[*out]++;
            return true;
          });
      node.fragment(entry.id)->ForEach([&](LocalRowId, const Row& row) {
        actual[row]++;
        if (sys_->HomeNodeForKey(row[entry.key_pos]) != i) ++misplaced;
        return true;
      });
    }
    if (expected != actual) {
      return Status::Internal("structure '" + entry.table +
                              "' diverged from its base '" + entry.base_table +
                              "'");
    }
    if (misplaced > 0) {
      return Status::Internal("structure '" + entry.table + "' has " +
                              std::to_string(misplaced) +
                              " rows on the wrong node");
    }
  }
  return Status::OK();
}

}  // namespace pjvm
