#ifndef PJVM_TESTS_VIEW_TEST_UTIL_H_
#define PJVM_TESTS_VIEW_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/system.h"
#include "net/network.h"
#include "view/view_def.h"
#include "view/view_manager.h"

namespace pjvm {

/// Multiset of rows for bag-semantics comparison, keyed by value.
inline RowCounts RowBag(const std::vector<Row>& rows) {
  RowCounts bag;
  for (const Row& row : rows) bag[row]++;
  return bag;
}

/// 64-bit FNV-1a hash of `bytes`: pins a whole fingerprint in one constant.
inline uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Appends every per-node CostTracker counter, the derived totals (TW, RT,
/// locality, SENDs) and the interconnect's message and byte totals to `os`.
inline void FingerprintCounters(ParallelSystem& sys, std::ostringstream* os) {
  const CostTracker& cost = sys.cost();
  for (int i = 0; i < sys.num_nodes(); ++i) {
    NodeCounters c = cost.node(i);
    *os << "node" << i << ":" << c.searches << "," << c.fetches << ","
        << c.inserts << "," << c.sends << "," << c.bytes_sent << ","
        << c.base_writes << "," << c.structure_writes << "," << c.view_writes
        << "\n";
  }
  *os << "TW=" << cost.TotalWorkload() << " RT=" << cost.ResponseTime()
      << " CRT=" << cost.ComputeResponseTime()
      << " touched=" << cost.NodesTouched() << " sends=" << cost.TotalSends()
      << "\n";
  Network& net = sys.network();
  *os << "msgs=" << net.TotalMessages() << " bytes=" << net.TotalBytes()
      << "\n";
}

/// FNV-1a hash of FingerprintCounters' output.
inline uint64_t CounterHash(ParallelSystem& sys) {
  std::ostringstream os;
  FingerprintCounters(sys, &os);
  return Fnv1a(os.str());
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
