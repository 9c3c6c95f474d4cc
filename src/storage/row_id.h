#ifndef PJVM_STORAGE_ROW_ID_H_
#define PJVM_STORAGE_ROW_ID_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

namespace pjvm {

/// \brief Identity of one table incarnation: dense, assigned by
/// Catalog::AddTable and never reused, so a table dropped and re-created
/// under the same name gets a new id. Below the name-taking API edge
/// (ParallelSystem, ViewManager, SQL) every module names tables by id.
using TableId = uint32_t;

/// No table: what a name lookup of an absent table yields, and the table
/// field of WAL control records (prepare, commit, abort).
inline constexpr TableId kNoTable = UINT32_MAX;

/// \brief Identifier of a row within one node's fragment of a table.
///
/// Local row ids are stable for the lifetime of the row: they survive other
/// rows' inserts and deletes, and a slot is recycled only once its delete is
/// past the point of rollback (autocommit deletes free immediately;
/// transactional deletes keep the slot reserved until commit so an abort can
/// restore the row at the same lrid — see HeapFile::DeleteKeepSlot).
using LocalRowId = uint64_t;

/// \brief Identifier of a row anywhere in the parallel system.
///
/// This is the paper's "global row id": the pair (data server node, local
/// row id at the node). Global index entries are lists of these.
struct GlobalRowId {
  int32_t node = -1;
  LocalRowId lrid = 0;

  friend bool operator==(const GlobalRowId& a, const GlobalRowId& b) {
    return a.node == b.node && a.lrid == b.lrid;
  }
  friend bool operator!=(const GlobalRowId& a, const GlobalRowId& b) {
    return !(a == b);
  }
  friend bool operator<(const GlobalRowId& a, const GlobalRowId& b) {
    return std::tie(a.node, a.lrid) < std::tie(b.node, b.lrid);
  }

  std::string ToString() const {
    // Appended piecewise: `"(" + std::string&&` trips GCC 12's -Wrestrict
    // false positive at -O3.
    std::string out = "(";
    out += std::to_string(node);
    out += ", ";
    out += std::to_string(lrid);
    out += ")";
    return out;
  }
};

struct GlobalRowIdHash {
  size_t operator()(const GlobalRowId& g) const {
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(g.node)) << 48) ^
                 g.lrid;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

}  // namespace pjvm

#endif  // PJVM_STORAGE_ROW_ID_H_
