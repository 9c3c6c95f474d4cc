#ifndef PJVM_TESTS_VIEW_TEST_UTIL_H_
#define PJVM_TESTS_VIEW_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/system.h"
#include "view/view_def.h"
#include "view/view_manager.h"

namespace pjvm {

/// Multiset fingerprint of rows for bag-semantics comparison.
inline std::map<std::string, int> RowBag(const std::vector<Row>& rows) {
  std::map<std::string, int> bag;
  for (const Row& row : rows) bag[RowToString(row)]++;
  return bag;
}

/// Schema A(a, c, e): key a, join attribute c, payload e.
inline Schema ASchema() {
  return Schema({{"a", ValueType::kInt64},
                 {"c", ValueType::kInt64},
                 {"e", ValueType::kInt64}});
}

/// Schema B(b, d, f): key b, join attribute d, payload f.
inline Schema BSchema() {
  return Schema({{"b", ValueType::kInt64},
                 {"d", ValueType::kInt64},
                 {"f", ValueType::kInt64}});
}

/// Schema C(g, h, i): join attribute g (to B.f), payload.
inline Schema CSchema() {
  return Schema({{"g", ValueType::kInt64},
                 {"h", ValueType::kInt64},
                 {"i", ValueType::kInt64}});
}

inline TableDef MakeTableDef(const std::string& name, Schema schema,
                             const std::string& partition_col) {
  TableDef def;
  def.name = name;
  def.schema = std::move(schema);
  def.partition = PartitionSpec::Hash(partition_col);
  return def;
}

/// The standard two-table setup of the paper's model experiments: neither A
/// nor B is partitioned on the join attribute (case 2). B has `fanout` rows
/// per join-key value in [0, b_keys).
struct TwoTableFixture {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> manager;
  int64_t next_a_key = 0;

  explicit TwoTableFixture(int num_nodes, int64_t b_keys = 20,
                           int64_t fanout = 2, int rows_per_page = 4,
                           bool b_clustered_on_d = false)
      : TwoTableFixture(Config(num_nodes, rows_per_page), b_keys, fanout,
                        b_clustered_on_d) {}

  /// The same tables on a system built from `cfg` (locking, policies, ...).
  TwoTableFixture(const SystemConfig& cfg, int64_t b_keys, int64_t fanout,
                  bool b_clustered_on_d = false) {
    sys = std::make_unique<ParallelSystem>(cfg);
    TableDef a = MakeTableDef("A", ASchema(), "a");
    TableDef b = MakeTableDef("B", BSchema(), "b");
    if (b_clustered_on_d) b.indexes.push_back(IndexSpec{"d", true});
    sys->CreateTable(a).Check();
    sys->CreateTable(b).Check();
    int64_t bkey = 0;
    for (int64_t k = 0; k < b_keys; ++k) {
      for (int64_t r = 0; r < fanout; ++r) {
        sys->Insert("B", {Value{bkey}, Value{k}, Value{bkey * 10}}).Check();
        ++bkey;
      }
    }
    manager = std::make_unique<ViewManager>(sys.get());
  }

  static SystemConfig Config(int num_nodes, int rows_per_page = 4) {
    SystemConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.rows_per_page = rows_per_page;
    return cfg;
  }

  /// A view over A join B on c = d.
  JoinViewDef MakeView(const std::string& name,
                       bool partition_on_a_attr = true) {
    JoinViewDef def;
    def.name = name;
    def.bases = {{"A", "A"}, {"B", "B"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}};
    if (partition_on_a_attr) def.partition_on = ColumnRef{"A", "e"};
    return def;
  }

  Row NextARow(int64_t join_key) {
    int64_t k = next_a_key++;
    return {Value{k}, Value{join_key}, Value{k * 100}};
  }
};

}  // namespace pjvm

#endif  // PJVM_TESTS_VIEW_TEST_UTIL_H_
