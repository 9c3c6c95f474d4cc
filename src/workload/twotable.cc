#include "workload/twotable.h"

namespace pjvm {

Status LoadTwoTable(ParallelSystem* sys, const TwoTableConfig& config) {
  TableDef a;
  a.name = "A";
  a.schema = Schema({{"a", ValueType::kInt64},
                     {"c", ValueType::kInt64},
                     {"e", ValueType::kInt64}});
  a.partition = PartitionSpec::Hash("a");
  PJVM_RETURN_NOT_OK(sys->CreateTable(a));

  TableDef b;
  b.name = "B";
  b.schema = Schema({{"b", ValueType::kInt64},
                     {"d", ValueType::kInt64},
                     {"f", ValueType::kInt64}});
  b.partition = PartitionSpec::Hash("b");
  b.indexes.push_back(IndexSpec{"d", config.b_clustered_on_d});
  PJVM_RETURN_NOT_OK(sys->CreateTable(b));

  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(config.b_join_keys * config.fanout));
  int64_t bkey = 0;
  for (int64_t k = 0; k < config.b_join_keys; ++k) {
    for (int64_t r = 0; r < config.fanout; ++r) {
      rows.push_back({Value{bkey}, Value{k}, Value{bkey * 7}});
      ++bkey;
    }
  }
  return sys->InsertMany("B", std::move(rows));
}

Row MakeDeltaA(const TwoTableConfig& config, int64_t i) {
  // Uniformly distributed on the join attribute (assumption 9): cycle
  // through B's key domain deterministically.
  return {Value{i}, Value{i % config.b_join_keys}, Value{i * 3}};
}

JoinViewDef MakeModelView() {
  JoinViewDef def;
  def.name = "JV";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  def.partition_on = ColumnRef{"A", "e"};
  return def;
}

}  // namespace pjvm
