#ifndef PJVM_NET_MESSAGE_H_
#define PJVM_NET_MESSAGE_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/value.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief Kind of payload carried between data server nodes.
enum class MessageKind {
  /// Base-table or view tuples being redistributed (insert path).
  kTuples = 0,
  /// Tuples to be deleted at the destination.
  kDeleteTuples,
  /// A probe request: join one carried tuple against a destination fragment.
  kProbe,
  /// A probe request narrowed to specific global row ids (GI method: the
  /// paper's "tuple + global row ids of T_B" message).
  kRidProbe,
  /// Join result tuples headed for the view's home node(s).
  kJoinResults,
};

const char* MessageKindToString(MessageKind kind);

/// \brief A unit of inter-node communication in the simulated interconnect.
///
/// The struct is deliberately a "fat union": each kind uses the fields it
/// needs. All cross-node data movement in the engine constructs one of
/// these, so the byte accounting is uniform.
struct Message {
  MessageKind kind = MessageKind::kTuples;
  int from = -1;
  int to = -1;
  /// Destination table (or view, or auxiliary relation) name.
  std::string table;
  std::vector<Row> rows;
  /// Row ids for kRidProbe (the matches known to live at `to`).
  std::vector<LocalRowId> rids;

  /// Approximate wire size in bytes (header + payload).
  size_t ByteSize() const;
};

}  // namespace pjvm

#endif  // PJVM_NET_MESSAGE_H_
