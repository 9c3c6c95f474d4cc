#ifndef PJVM_VIEW_AR_MINIMIZER_H_
#define PJVM_VIEW_AR_MINIMIZER_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/system.h"
#include "view/maintainer.h"
#include "view/view_def.h"

namespace pjvm {

/// Maps a base delta row and its (node, local rid) to the structure row it
/// writes, or nullopt when the structure does not hold it.
using StructureRowFn =
    std::function<std::optional<Row>(const Row& base_row, GlobalRowId gid)>;

/// \brief Applies `delta` to the structure table `table` (an auxiliary
/// relation or a global index), deletes first. Each structure row ships from
/// its base row's node (the key's home when the gid is unknown) to the hash
/// home of the base row's `key_col` — one SEND unless already there — and is
/// deleted or inserted there. Returns the number of structure writes.
Result<size_t> ShipStructureDelta(ParallelSystem* sys, uint64_t txn,
                                  const DeltaBatch& delta,
                                  const std::string& table, int key_col,
                                  const StructureRowFn& make);

/// \brief Access descriptor for probing an auxiliary relation.
struct ArAccess {
  /// Name of the AR table ("partitioned on the join attribute, with a
  /// clustered index on it").
  std::string table;
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

/// \brief Registry of auxiliary relations with the paper's storage
/// minimization (Section 2.1.2).
///
/// An auxiliary relation AR_R = rho(pi(sigma(R))) for a (table, join column)
/// pair stores only the columns any consuming view needs and, when every
/// consumer agrees on the selection predicates, only the sigma-passing rows.
/// Views that join the same table on the same attribute share one AR
/// ("keep only one auxiliary relation AR_A for all the join views that use
/// the same join attribute A.c"): a new consumer that needs more columns
/// widens the AR (rebuild), and one with different predicates generalizes it
/// to unfiltered, pushing the predicates back to probe time.
class ArRegistry {
 public:
  explicit ArRegistry(ParallelSystem* sys) : sys_(sys) {}

  /// Ensures an AR for (table, col) exists covering `needed_cols` and usable
  /// under `preds` (full-schema columns). Creates, widens, or generalizes as
  /// needed, backfilling from the base table.
  Status Require(const std::string& table, int col,
                 const std::vector<int>& needed_cols,
                 const std::vector<BoundPred>& preds);

  /// Drops one reference to the AR for (table, col); the AR table is
  /// removed once no registered view needs it. NotFound if absent.
  Status Release(const std::string& table, int col);

  /// Access descriptor for a consumer that needs `needed_cols` of the base
  /// and applies `preds` (full-schema columns) to it. NotFound if no AR
  /// exists (e.g. the base is already partitioned on `col`).
  Result<ArAccess> Access(const std::string& table, int col,
                          const std::vector<int>& needed_cols,
                          const std::vector<BoundPred>& preds) const;

  bool Has(const std::string& table, int col) const {
    return entries_.count({table, col}) > 0;
  }

  /// Propagates one base-table delta into every AR of that table: each row
  /// is shipped from its arrival node to the AR's hash home (one SEND) and
  /// inserted/deleted there. Rows failing a filtered AR's predicates are
  /// skipped. Returns the number of AR writes performed.
  Result<size_t> ApplyDelta(uint64_t txn, const DeltaBatch& delta);

  /// Total bytes across all ARs (the method's storage overhead).
  size_t StorageBytes() const;
  /// Bytes the ARs would occupy without minimization (full base copies).
  size_t UnminimizedBytes() const;

  /// Names of all AR tables.
  std::vector<std::string> TableNames() const;

  /// Verifies every AR equals pi(sigma(base)) re-partitioned on its column:
  /// exact multiset equality plus per-node placement.
  Status CheckConsistent() const;

 private:
  struct Entry {
    std::string ar_table;
    std::string base_table;
    int col = -1;  // Full-schema column the AR is partitioned/clustered on.
    std::vector<int> cols;  // Ascending full-schema columns stored.
    bool filtered = false;
    std::vector<BoundPred> preds;  // Meaningful when filtered.
    std::string fingerprint;       // Of preds, for sharing decisions.
  };

  static std::string Fingerprint(const std::vector<BoundPred>& preds);
  Status Build(Entry& entry);
  Status Rebuild(Entry& entry, const std::vector<int>& cols, bool filtered,
                 const std::vector<BoundPred>& preds);
  static bool PassesPreds(const Row& full_row,
                          const std::vector<BoundPred>& preds);

  ParallelSystem* sys_;
  std::map<std::pair<std::string, int>, Entry> entries_;
  std::map<std::pair<std::string, int>, int> refs_;
};

}  // namespace pjvm

#endif  // PJVM_VIEW_AR_MINIMIZER_H_
