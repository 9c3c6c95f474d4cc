#include "exec/join_chooser.h"

#include "exec/external_sorter.h"

namespace pjvm {

const char* JoinAlgorithmToString(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kIndexNestedLoops:
      return "INDEX_NESTED_LOOPS";
    case JoinAlgorithm::kSortMerge:
      return "SORT_MERGE";
  }
  return "UNKNOWN";
}

JoinChoice ChooseLocalJoin(const JoinChoiceInput& input) {
  JoinChoice choice;
  choice.index_io =
      static_cast<double>(input.outer_tuples) * input.per_tuple_index_io;
  if (input.inner_clustered) {
    choice.sort_merge_io = static_cast<double>(input.inner_pages);
  } else {
    choice.sort_merge_io =
        static_cast<double>(input.inner_pages) *
        static_cast<double>(SortPasses(input.inner_pages, input.memory_pages));
  }
  choice.algorithm = choice.index_io <= choice.sort_merge_io
                         ? JoinAlgorithm::kIndexNestedLoops
                         : JoinAlgorithm::kSortMerge;
  return choice;
}

}  // namespace pjvm
