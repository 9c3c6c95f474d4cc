#include "engine/catalog.h"

namespace pjvm {

const char* TableKindToString(TableKind kind) {
  switch (kind) {
    case TableKind::kBase:
      return "BASE";
    case TableKind::kAuxiliary:
      return "AUXILIARY";
    case TableKind::kView:
      return "VIEW";
    case TableKind::kGlobalIndex:
      return "GLOBAL_INDEX";
  }
  return "UNKNOWN";
}

std::string PartitionSpec::ToString() const {
  if (kind == Kind::kHashColumn) return "HASH(" + column + ")";
  return "ROUND_ROBIN";
}

int TableDef::PartitionColumn() const {
  if (!partition.is_hash()) return -1;
  auto idx = schema.ColumnIndex(partition.column);
  if (!idx.ok()) return -1;
  return *idx;
}

bool TableDef::HasIndexOn(const std::string& column) const {
  for (const IndexSpec& idx : indexes) {
    if (idx.column == column) return true;
  }
  return false;
}

bool TableDef::HasClusteredIndexOn(const std::string& column) const {
  for (const IndexSpec& idx : indexes) {
    if (idx.column == column && idx.clustered) return true;
  }
  return false;
}

std::string TableDef::ToString() const {
  std::string out = std::string(TableKindToString(kind)) + " " + name + " " +
                    schema.ToString() + " " + partition.ToString();
  for (const IndexSpec& idx : indexes) {
    out += idx.clustered ? " CLUSTERED_INDEX(" : " INDEX(";
    out += idx.column + ")";
  }
  return out;
}

Status Catalog::AddTable(TableDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (ids_.count(def.name) > 0) {
    return Status::AlreadyExists("table '" + def.name + "' already exists");
  }
  if (def.partition.is_hash() && !def.schema.HasColumn(def.partition.column)) {
    return Status::InvalidArgument("partition column '" + def.partition.column +
                                   "' not in schema of '" + def.name + "'");
  }
  int clustered_count = 0;
  for (const IndexSpec& idx : def.indexes) {
    if (!def.schema.HasColumn(idx.column)) {
      return Status::InvalidArgument("index column '" + idx.column +
                                     "' not in schema of '" + def.name + "'");
    }
    if (idx.clustered) ++clustered_count;
  }
  if (clustered_count > 1) {
    return Status::InvalidArgument(
        "table '" + def.name +
        "' declares multiple clustered indexes; a relation can be clustered "
        "on at most one attribute");
  }
  def.id = NewId();
  ids_.emplace(def.name, def.id);
  tables_[def.id] = std::make_unique<TableDef>(std::move(def));
  return Status::OK();
}

Status Catalog::AddIndexToTable(const std::string& name, IndexSpec index) {
  const TableId id = IdOf(name);
  if (id == kNoTable) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  TableDef& def = *tables_[id];
  if (!def.schema.HasColumn(index.column)) {
    return Status::InvalidArgument("index column '" + index.column +
                                   "' not in schema of '" + name + "'");
  }
  if (def.HasIndexOn(index.column)) {
    return Status::AlreadyExists("table '" + name +
                                 "' already has an index on '" + index.column +
                                 "'");
  }
  if (index.clustered) {
    for (const IndexSpec& existing : def.indexes) {
      if (existing.clustered) {
        return Status::InvalidArgument("table '" + name +
                                       "' already has a clustered index");
      }
    }
  }
  def.indexes.push_back(std::move(index));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  tables_[it->second].reset();
  ids_.erase(it);
  return Status::OK();
}

TableId Catalog::IdOf(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoTable : it->second;
}

Result<const TableDef*> Catalog::Get(const std::string& name) const {
  const TableDef* def = Find(IdOf(name));
  if (def == nullptr) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return def;
}

std::vector<std::string> Catalog::ListNames() const {
  std::vector<std::string> names;
  names.reserve(ids_.size());
  for (const auto& [name, id] : ids_) names.push_back(name);
  return names;
}

std::vector<std::string> Catalog::ListNames(TableKind kind) const {
  std::vector<std::string> names;
  for (const auto& [name, id] : ids_) {
    if (tables_[id]->kind == kind) names.push_back(name);
  }
  return names;
}

}  // namespace pjvm
