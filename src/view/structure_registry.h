#ifndef PJVM_VIEW_STRUCTURE_REGISTRY_H_
#define PJVM_VIEW_STRUCTURE_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/system.h"
#include "view/maintainer.h"
#include "view/view_def.h"

namespace pjvm {

/// \brief Access descriptor for probing an auxiliary relation.
struct ArAccess {
  /// Name (hop bytes, trace details) and id of the AR table ("partitioned on
  /// the join attribute, with a clustered index on it").
  std::string table;
  TableId id = kNoTable;
  /// Position of the join attribute inside the AR's schema.
  int probe_col = -1;
  /// For each needed column of the underlying base (in needed order), its
  /// position in the AR's schema. ARs may be wider than one view needs when
  /// shared across views (Section 2.1.2).
  std::vector<int> needed_pos;
  /// Selection predicates the consumer must still apply to probed AR rows
  /// (column indices are positions in the AR's schema). Empty when the AR
  /// itself stores exactly the consumer's sigma-filtered rows.
  std::vector<BoundPred> residual_preds;
};

/// \brief Registry of the methods' derived structures: auxiliary relations
/// (Section 2.1.2) and global indexes (Section 2.1.3).
///
/// Both are refcounted tables derived from one (base table, join column),
/// hash-partitioned and clustered on that column, backfilled from the base
/// and kept in step by shipping each delta row to its key's home. They differ
/// only in the row a base row maps to:
///
/// - An auxiliary relation AR_R = rho(pi(sigma(R))) stores only the columns
///   any consuming view needs and, when every consumer agrees on the
///   selection predicates, only the sigma-passing rows. Views that join the
///   same table on the same attribute share one AR ("keep only one auxiliary
///   relation AR_A for all the join views that use the same join attribute
///   A.c"): a new consumer that needs more columns widens the AR (rebuild),
///   and one with different predicates generalizes it to unfiltered, pushing
///   the predicates back to probe time.
/// - A global index stores one unfiltered (key, node, lrid) row per base row,
///   so one GI per (table, column) serves every view (selections are applied
///   after the fetch). Local row ids are not stable across a heap rebuild,
///   so GIs are rebuilt after crash recovery.
class StructureRegistry {
 public:
  explicit StructureRegistry(ParallelSystem* sys) : sys_(sys) {}

  /// Ensures `method`'s structure for (table, col) exists. An AR is made to
  /// cover `needed_cols` and to be usable under `preds` (full-schema
  /// columns), created, widened or generalized as needed; a GI ignores both.
  /// Structures are backfilled from the base table.
  Status Require(MaintenanceMethod method, const std::string& table, int col,
                 const std::vector<int>& needed_cols,
                 const std::vector<BoundPred>& preds);

  /// Drops one reference to the structure; its table is removed once no
  /// registered view needs it. NotFound if absent.
  Status Release(MaintenanceMethod method, const std::string& table, int col);

  bool Has(MaintenanceMethod method, const std::string& table, int col) const {
    return entries_.count({method, table, col}) > 0;
  }

  /// AR access descriptor for a consumer that needs `needed_cols` of the base
  /// and applies `preds` (full-schema columns) to it. NotFound if no AR
  /// exists (e.g. the base is already partitioned on `col`).
  Result<ArAccess> Access(const std::string& table, int col,
                          const std::vector<int>& needed_cols,
                          const std::vector<BoundPred>& preds) const;

  /// Id of the GI table for (table, col); NotFound if absent.
  Result<TableId> GlobalIndex(const std::string& table, int col) const;

  /// Propagates one base-table delta into every structure of that table,
  /// deletes first: each structure row ships from its base row's node (the
  /// key's home when the gid is unknown) to its key's home — one SEND unless
  /// already there — and is deleted or inserted there. Rows failing a
  /// filtered AR's predicates are skipped; GIs need one gid per delta row.
  /// Returns the number of structure writes.
  Result<size_t> ApplyDelta(uint64_t txn, const DeltaBatch& delta);

  /// Drops and rebuilds every GI from the current base tables (run after
  /// crash recovery); each gets a new table id.
  Status RebuildGlobalIndexes();

  /// Total bytes across `method`'s structures (its storage overhead).
  size_t StorageBytes(MaintenanceMethod method) const;
  /// Bytes the ARs would occupy without minimization (full base copies).
  size_t UnminimizedBytes() const;

  /// Names of `method`'s structure tables.
  std::vector<std::string> TableNames(MaintenanceMethod method) const;

  /// Verifies every structure holds exactly the rows its base implies (exact
  /// multiset equality) and that each sits on its key's home node.
  Status CheckConsistent() const;

 private:
  struct Entry {
    MaintenanceMethod method = MaintenanceMethod::kAuxRelation;
    std::string table;  // The structure table, and its id.
    TableId id = kNoTable;
    std::string base_table;
    TableId base_id = kNoTable;
    int col = -1;      // Full-schema base column the table is keyed on.
    int key_pos = -1;  // Position of that key in the structure's rows.
    // AR only: ascending full-schema columns stored, and the predicates the
    // stored rows pass (meaningful when filtered).
    std::vector<int> cols;
    bool filtered = false;
    std::vector<BoundPred> preds;
    std::string fingerprint;  // Of preds, for sharing decisions.
  };
  using Key = std::tuple<MaintenanceMethod, std::string, int>;

  static std::string Fingerprint(const std::vector<BoundPred>& preds);
  /// The structure row `base_row` at `gid` maps to, or nullopt when the
  /// structure does not hold it.
  static std::optional<Row> RowFor(const Entry& entry, const Row& base_row,
                                   GlobalRowId gid);
  /// Creates the structure's table (setting the entry's ids) and backfills
  /// it from the base.
  Status Build(Entry& entry);

  ParallelSystem* sys_;
  std::map<Key, Entry> entries_;
  std::map<Key, int> refs_;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_STRUCTURE_REGISTRY_H_
