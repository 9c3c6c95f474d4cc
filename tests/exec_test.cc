#include <gtest/gtest.h>

#include <algorithm>

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

  // Index nested loops as the maintainers run it: one Node::IndexProbe per
  // outer tuple on the inner fragment's `c` index.
  Result<std::vector<JoinedPair>> ProbeEach(const std::string& table,
                                            const std::vector<Row>& outer) {
    std::vector<JoinedPair> out;
    for (const Row& o : outer) {
      PJVM_ASSIGN_OR_RETURN(ProbeResult probe,
                            sys_->node(0)->IndexProbe(table, 1, o[1]));
      for (Row& match : probe.rows) {
        out.push_back(JoinedPair{o, std::move(match)});
      }
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
  for (const JoinedPair& p : *result) {
    EXPECT_EQ(p.outer[1], p.inner[1]);
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
  auto smj = SortMergeJoinFragment(sys_->node(0), "B", 1, outer, 1, 100,
                                   &sys_->cost());
  ASSERT_TRUE(inl.ok());
  ASSERT_TRUE(smj.ok());
  auto key = [](const JoinedPair& p) {
    return RowToString(p.outer) + "|" + RowToString(p.inner);
  };
  std::vector<std::string> a, b;
  for (const auto& p : *inl) a.push_back(key(p));
  for (const auto& p : *smj) b.push_back(key(p));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
}

TEST_F(LocalJoinTest, SortMergeChargesSortWhenNotClustered) {
  sys_->cost().Reset();
  std::vector<Row> outer = {{Value{1}, Value{0}}};
  ASSERT_TRUE(SortMergeJoinFragment(sys_->node(0), "B", 1, outer, 1,
                                    /*memory_pages=*/2, &sys_->cost())
                  .ok());
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
  ASSERT_TRUE(SortMergeJoinFragment(sys_->node(0), "Bc", 1, outer, 1, 2,
                                    &sys_->cost())
                  .ok());
  EXPECT_DOUBLE_EQ(sys_->cost().TotalWorkload(), 3.0);  // Just the scan.
}

TEST_F(LocalJoinTest, MissingTableIsNotFound) {
  std::vector<Row> outer = {{Value{1}, Value{0}}};
  EXPECT_FALSE(
      SortMergeJoinFragment(sys_->node(0), "Nope", 1, outer, 1, 2, &sys_->cost())
          .ok());
  EXPECT_FALSE(ProbeEach("Nope", outer).ok());
}

}  // namespace
}  // namespace pjvm
