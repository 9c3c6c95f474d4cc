#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "engine/system.h"
#include "exec/external_sorter.h"
#include "exec/join_chooser.h"
#include "exec/local_join.h"

namespace pjvm {
namespace {

// ------------------------------------------------------------ ExternalSorter

TEST(ExternalSorterTest, SortsRowsByKey) {
  ExternalSorter sorter(/*memory_pages=*/4, /*rows_per_page=*/4);
  std::vector<Row> rows = {{Value{3}}, {Value{1}}, {Value{2}}};
  sorter.Sort(&rows, 0);
  EXPECT_EQ(rows[0][0], Value{1});
  EXPECT_EQ(rows[1][0], Value{2});
  EXPECT_EQ(rows[2][0], Value{3});
}

TEST(ExternalSorterTest, StableForEqualKeys) {
  ExternalSorter sorter(4, 4);
  std::vector<Row> rows = {{Value{1}, Value{"first"}}, {Value{1}, Value{"second"}}};
  sorter.Sort(&rows, 0);
  EXPECT_EQ(rows[0][1], Value{"first"});
}

TEST(ExternalSorterTest, PassCountMatchesLogFormula) {
  const int kMemoryPages = 100;
  EXPECT_EQ(SortPasses(1, kMemoryPages), 1u);
  EXPECT_EQ(SortPasses(100, kMemoryPages), 1u);   // log_100(100) = 1
  EXPECT_EQ(SortPasses(101, kMemoryPages), 2u);   // just over one pass
  EXPECT_EQ(SortPasses(6400, kMemoryPages), 2u);  // the paper's |B| with M=100
  EXPECT_EQ(SortPasses(10000, kMemoryPages), 2u);
  EXPECT_EQ(SortPasses(10001, kMemoryPages), 3u);
}

TEST(ExternalSorterTest, CostIsPagesTimesPasses) {
  ExternalSorter sorter(100, 64);
  EXPECT_EQ(sorter.SortCostPages(6400), 12800u);
  EXPECT_EQ(sorter.SortCostPages(50), 50u);
}

TEST(ExternalSorterTest, PagesForRoundsUp) {
  ExternalSorter sorter(100, 64);
  EXPECT_EQ(sorter.PagesFor(0), 0u);
  EXPECT_EQ(sorter.PagesFor(1), 1u);
  EXPECT_EQ(sorter.PagesFor(64), 1u);
  EXPECT_EQ(sorter.PagesFor(65), 2u);
}

// ------------------------------------------------------------ JoinChooser

TEST(JoinChooserTest, SmallDeltaPrefersIndexJoin) {
  JoinChoiceInput in;
  in.outer_tuples = 10;
  in.per_tuple_index_io = 2.0;  // search + one fetch
  in.inner_pages = 1600;
  in.inner_clustered = false;
  in.memory_pages = 100;
  JoinChoice choice = ChooseLocalJoin(in);
  EXPECT_EQ(choice.algorithm, JoinAlgorithm::kIndexNestedLoops);
  EXPECT_DOUBLE_EQ(choice.index_io, 20.0);
  EXPECT_DOUBLE_EQ(choice.sort_merge_io, 3200.0);
}

TEST(JoinChooserTest, HugeDeltaPrefersSortMerge) {
  JoinChoiceInput in;
  in.outer_tuples = 10000;
  in.per_tuple_index_io = 1.0;
  in.inner_pages = 800;
  in.inner_clustered = true;
  JoinChoice choice = ChooseLocalJoin(in);
  EXPECT_EQ(choice.algorithm, JoinAlgorithm::kSortMerge);
  EXPECT_DOUBLE_EQ(choice.sort_merge_io, 800.0);
}

TEST(JoinChooserTest, CrossoverNearInnerPages) {
  // With a clustered inner of P pages and 1 I/O per outer tuple, the
  // crossover is exactly at P outer tuples — the paper's Section 3.1.2
  // observation that naive+clustered wins once |A| approaches |B| pages.
  JoinChoiceInput in;
  in.inner_pages = 500;
  in.inner_clustered = true;
  in.per_tuple_index_io = 1.0;
  in.outer_tuples = 500;
  EXPECT_EQ(ChooseLocalJoin(in).algorithm, JoinAlgorithm::kIndexNestedLoops);
  in.outer_tuples = 501;
  EXPECT_EQ(ChooseLocalJoin(in).algorithm, JoinAlgorithm::kSortMerge);
}

// ------------------------------------------------------------ Local joins

Schema AbSchema() {
  return Schema({{"a", ValueType::kInt64}, {"c", ValueType::kInt64}});
}

class LocalJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig cfg;
    cfg.num_nodes = 1;
    cfg.rows_per_page = 4;
    sys_ = std::make_unique<ParallelSystem>(cfg);
    TableDef def;
    def.name = "B";
    def.schema = AbSchema();
    def.partition = PartitionSpec::Hash("a");
    def.indexes.push_back({"c", false});
    ASSERT_TRUE(sys_->CreateTable(def).ok());
    // Join column c has fanout 2: keys 0..4, two rows each.
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(sys_->Insert("B", {Value{i}, Value{i % 5}}).ok());
    }
  }

  /// One join result with the inner row copied out (the kernel's pointers
  /// live only as long as the node latch).
  struct JoinRow {
    size_t outer;
    Row inner;
  };

  // Index nested loops as the maintainers run it: one Node::IndexProbe per
  // outer tuple on the inner fragment's `c` index.
  Result<std::vector<JoinRow>> ProbeEach(const std::string& table,
                                         const std::vector<Row>& outer) {
    std::vector<JoinRow> out;
    for (size_t i = 0; i < outer.size(); ++i) {
      PJVM_ASSIGN_OR_RETURN(
          ProbeResult probe,
          sys_->node(0)->IndexProbe(sys_->catalog().IdOf(table), 1,
                                    outer[i][1]));
      for (Row& match : probe.rows) {
        out.push_back(JoinRow{i, std::move(match)});
      }
    }
    return out;
  }

  /// SortMergeJoinFragment on node 0 joining outer column 1 to inner column
  /// 1, with each match as (outer position, inner rid, inner row), under
  /// the latch that keeps the inner pointers valid.
  Result<std::vector<std::tuple<uint32_t, LocalRowId, Row>>> SortMerge(
      const std::string& table, const std::vector<Row>& outer,
      int memory_pages = 100, uint64_t txn = kAutoCommitTxnId) {
    std::vector<const Row*> refs;
    for (const Row& o : outer) refs.push_back(&o);
    NodeLatchGuard latch(*sys_->node(0), LatchMode::kShared);
    PJVM_ASSIGN_OR_RETURN(
        std::vector<LocalJoinMatch> matches,
        SortMergeJoinFragment(sys_->node(0), sys_->catalog().IdOf(table), 1,
                              GroupOuterKeys(refs, 1), memory_pages,
                              &sys_->cost(), txn));
    std::vector<std::tuple<uint32_t, LocalRowId, Row>> out;
    for (const LocalJoinMatch& m : matches) {
      out.emplace_back(m.outer, m.inner_rid, *m.inner);
    }
    return out;
  }

  std::unique_ptr<ParallelSystem> sys_;
};

TEST_F(LocalJoinTest, IndexNestedLoopFindsAllMatches) {
  std::vector<Row> outer = {{Value{100}, Value{2}}, {Value{101}, Value{4}}};
  auto result = ProbeEach("B", outer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);  // 2 outer tuples x fanout 2
  for (const JoinRow& p : *result) {
    EXPECT_EQ(outer[p.outer][1], p.inner[1]);
  }
}

TEST_F(LocalJoinTest, IndexNestedLoopNoMatches) {
  std::vector<Row> outer = {{Value{1}, Value{77}}};
  auto result = ProbeEach("B", outer);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_F(LocalJoinTest, SortMergeMatchesIndexJoinOutput) {
  std::vector<Row> outer;
  for (int64_t k = 0; k < 5; ++k) outer.push_back({Value{200 + k}, Value{k}});
  auto inl = ProbeEach("B", outer);
  auto smj = SortMerge("B", outer);
  ASSERT_TRUE(inl.ok());
  ASSERT_TRUE(smj.ok());
  std::vector<std::string> a, b;
  for (const JoinRow& p : *inl) {
    a.push_back(RowToString(outer[p.outer]) + "|" + RowToString(p.inner));
  }
  for (const auto& [pos, rid, inner] : *smj) {
    b.push_back(RowToString(outer[pos]) + "|" + RowToString(inner));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
}

TEST_F(LocalJoinTest, SortMergeChargesSortWhenNotClustered) {
  sys_->cost().Reset();
  std::vector<Row> outer = {{Value{1}, Value{0}}};
  ASSERT_TRUE(SortMerge("B", outer, /*memory_pages=*/2).ok());
  // 10 rows / 4 per page = 3 pages; M=2 -> ceil(log_2 3) = 2 passes.
  EXPECT_DOUBLE_EQ(sys_->cost().TotalWorkload(), 6.0);
}

TEST_F(LocalJoinTest, SortMergeChargesScanWhenClustered) {
  TableDef def;
  def.name = "Bc";
  def.schema = AbSchema();
  def.partition = PartitionSpec::Hash("a");
  def.indexes.push_back({"c", true});
  ASSERT_TRUE(sys_->CreateTable(def).ok());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(sys_->Insert("Bc", {Value{i}, Value{i % 5}}).ok());
  }
  sys_->cost().Reset();
  std::vector<Row> outer = {{Value{1}, Value{0}}};
  ASSERT_TRUE(SortMerge("Bc", outer, 2).ok());
  EXPECT_DOUBLE_EQ(sys_->cost().TotalWorkload(), 3.0);  // Just the scan.
}

TEST_F(LocalJoinTest, MissingTableIsNotFound) {
  std::vector<Row> outer = {{Value{1}, Value{0}}};
  EXPECT_FALSE(SortMerge("Nope", outer, 2).ok());
  EXPECT_FALSE(ProbeEach("Nope", outer).ok());
}

// The join executes by index lookup when the fragment has an index on the
// join column and by heap scan otherwise; both must return the same matches
// in the scan's (inner lrid, outer position) order and charge the same.
TEST_F(LocalJoinTest, IndexAndScanPathsReturnIdenticalMatches) {
  // Twin fragments with identical operation histories, so equal rows sit
  // at equal lrids: "Bi" is indexed (non-clustered) on c, "Bs" is not.
  for (const char* name : {"Bi", "Bs"}) {
    TableDef def;
    def.name = name;
    def.schema = AbSchema();
    def.partition = PartitionSpec::Hash("a");
    if (std::string(name) == "Bi") def.indexes.push_back({"c", false});
    ASSERT_TRUE(sys_->CreateTable(def).ok());
    for (int64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(sys_->Insert(name, {Value{i}, Value{i % 4}}).ok());
    }
    // Recycled slots: the later inserts reuse freed low lrids, so lrid
    // order differs from insertion (and key) order.
    for (int64_t i : {1, 2, 5}) {
      ASSERT_TRUE(sys_->DeleteExact(name, {Value{i}, Value{i % 4}}).ok());
    }
    for (int64_t i = 20; i < 23; ++i) {
      ASSERT_TRUE(sys_->Insert(name, {Value{i}, Value{3 - i % 4}}).ok());
    }
  }
  // A running transaction deletes one row of each: its slot is kept
  // reserved (for an abort to restore it), and the join must not see it.
  uint64_t txn = sys_->Begin();
  for (const char* name : {"Bi", "Bs"}) {
    ASSERT_TRUE(sys_->DeleteExact(name, {Value{8}, Value{0}}, txn).ok());
  }
  // Duplicate keys (positions 0/3 and 1/5) and keys with no match (9, 7).
  std::vector<Row> outer = {{Value{100}, Value{0}}, {Value{101}, Value{3}},
                            {Value{102}, Value{9}}, {Value{103}, Value{0}},
                            {Value{104}, Value{1}}, {Value{105}, Value{3}},
                            {Value{106}, Value{7}}};
  sys_->cost().Reset();
  auto indexed = SortMerge("Bi", outer, 2, txn);
  double indexed_tw = sys_->cost().TotalWorkload();
  sys_->cost().Reset();
  auto scanned = SortMerge("Bs", outer, 2, txn);
  double scanned_tw = sys_->cost().TotalWorkload();
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*indexed, *scanned);
  EXPECT_TRUE(std::is_sorted(indexed->begin(), indexed->end(),
                             [](const auto& a, const auto& b) {
                               return std::tie(std::get<1>(a), std::get<0>(a)) <
                                      std::tie(std::get<1>(b), std::get<0>(b));
                             }));
  // Keys 0 (2 live rows, x2 outer), 3 (4 rows, x2) and 1 (2 rows, x1).
  EXPECT_EQ(indexed->size(), 2u * 2 + 4u * 2 + 2u);
  for (const auto& [pos, rid, inner] : *indexed) {
    EXPECT_EQ(inner[1], outer[pos][1]);
    EXPECT_NE(inner[0], Value{8});
  }
  // The lrid order really differs from the key order here.
  EXPECT_FALSE(std::is_sorted(indexed->begin(), indexed->end(),
                              [](const auto& a, const auto& b) {
                                return std::get<2>(a)[1] < std::get<2>(b)[1];
                              }));
  // Both charge the sort of 3 pages (12 slots / 4 per page) with M=2:
  // 3 * ceil(log_2 3) = 6 page I/Os.
  EXPECT_DOUBLE_EQ(indexed_tw, 6.0);
  EXPECT_DOUBLE_EQ(scanned_tw, indexed_tw);
  ASSERT_TRUE(sys_->Abort(txn).ok());
}

}  // namespace
}  // namespace pjvm
