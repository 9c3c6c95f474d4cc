#ifndef PJVM_ENGINE_CATALOG_H_
#define PJVM_ENGINE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief Role a table plays in the system.
enum class TableKind {
  /// A user base relation.
  kBase = 0,
  /// An auxiliary relation: a selection/projection of a base relation
  /// re-partitioned on a join attribute (Section 2.1.2 of the paper).
  kAuxiliary,
  /// A materialized join view.
  kView,
  /// A fragment set of a global index: rows are (key, node, lrid) entries
  /// partitioned on the key (Section 2.1.3 of the paper).
  kGlobalIndex,
};

const char* TableKindToString(TableKind kind);

/// \brief A secondary index declaration on a table.
struct IndexSpec {
  std::string column;
  bool clustered = false;
};

/// \brief How a table's rows map to data server nodes.
struct PartitionSpec {
  enum class Kind {
    /// hash(row[column]) % L — the paper's partitioning on an attribute.
    kHashColumn = 0,
    /// Spread rows evenly with no attribute (a view "not partitioned on an
    /// attribute of A" in the paper's terminology).
    kRoundRobin,
  };

  Kind kind = Kind::kRoundRobin;
  std::string column;

  static PartitionSpec Hash(std::string column) {
    return PartitionSpec{Kind::kHashColumn, std::move(column)};
  }
  static PartitionSpec RoundRobin() {
    return PartitionSpec{Kind::kRoundRobin, ""};
  }

  bool is_hash() const { return kind == Kind::kHashColumn; }
  std::string ToString() const;
};

/// \brief Complete definition of a (distributed) table.
struct TableDef {
  std::string name;
  /// Assigned by Catalog::AddTable (whatever the caller set is replaced).
  TableId id = kNoTable;
  Schema schema;
  PartitionSpec partition = PartitionSpec::RoundRobin();
  std::vector<IndexSpec> indexes;
  TableKind kind = TableKind::kBase;

  /// Index (into the schema) of the hash-partitioning column, or -1.
  int PartitionColumn() const;
  /// True iff the table is hash-partitioned on schema column `col`.
  bool PartitionedOn(int col) const {
    return col >= 0 && PartitionColumn() == col;
  }
  bool HasIndexOn(const std::string& column) const;
  bool HasClusteredIndexOn(const std::string& column) const;

  std::string ToString() const;
};

/// \brief The system-wide table definitions, by name and by id.
class Catalog {
 public:
  /// Registers `def` under a fresh id (NewId).
  Status AddTable(TableDef def);
  Status DropTable(const std::string& name);
  /// Adds a secondary index declaration to an existing table. Rejects
  /// duplicates and a second clustered index.
  Status AddIndexToTable(const std::string& name, IndexSpec index);
  Result<const TableDef*> Get(const std::string& name) const;
  bool Has(const std::string& name) const { return ids_.count(name) > 0; }
  /// The id of table `name`, or kNoTable when there is none.
  TableId IdOf(const std::string& name) const;
  /// The live table with id `id`; nullptr once dropped or never registered.
  const TableDef* Find(TableId id) const {
    return id < tables_.size() ? tables_[id].get() : nullptr;
  }
  /// The next id of the never-reused sequence AddTable draws from, naming no
  /// table: a lock identity of derived storage (view/merged_storage.h).
  TableId NewId() {
    tables_.emplace_back();
    return static_cast<TableId>(tables_.size() - 1);
  }

  /// Names of all tables, optionally restricted to one kind.
  std::vector<std::string> ListNames() const;
  std::vector<std::string> ListNames(TableKind kind) const;

 private:
  std::map<std::string, TableId> ids_;
  /// Indexed by id: null once dropped, and for an id from NewId.
  std::vector<std::unique_ptr<TableDef>> tables_;
};

}  // namespace pjvm

#endif  // PJVM_ENGINE_CATALOG_H_
