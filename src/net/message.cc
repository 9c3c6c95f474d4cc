#include "net/message.h"

namespace pjvm {

const char* MessageKindToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kTuples:
      return "TUPLES";
    case MessageKind::kDeleteTuples:
      return "DELETE_TUPLES";
    case MessageKind::kProbe:
      return "PROBE";
    case MessageKind::kRidProbe:
      return "RID_PROBE";
    case MessageKind::kJoinResults:
      return "JOIN_RESULTS";
  }
  return "UNKNOWN";
}

size_t Message::ByteSize() const {
  size_t bytes = 16 + table.size();
  for (const Row& row : rows) bytes += RowByteSize(row);
  bytes += rids.size() * sizeof(LocalRowId);
  return bytes;
}

}  // namespace pjvm
