#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/catalog.h"
#include "engine/partitioner.h"
#include "engine/system.h"

namespace pjvm {
namespace {

Schema AbSchema() {
  return Schema({{"a", ValueType::kInt64}, {"c", ValueType::kInt64}});
}

TableDef HashTableDef(const std::string& name, const std::string& col) {
  TableDef def;
  def.name = name;
  def.schema = AbSchema();
  def.partition = PartitionSpec::Hash(col);
  return def;
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, AddAndGet) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(HashTableDef("A", "a")).ok());
  ASSERT_TRUE(cat.Has("A"));
  auto def = cat.Get("A");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->name, "A");
  EXPECT_FALSE(cat.Get("B").ok());
}

TEST(CatalogTest, RejectsDuplicatesAndBadColumns) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(HashTableDef("A", "a")).ok());
  EXPECT_EQ(cat.AddTable(HashTableDef("A", "a")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(cat.AddTable(HashTableDef("B", "nope")).ok());
  TableDef bad_index = HashTableDef("C", "a");
  bad_index.indexes.push_back({"ghost", false});
  EXPECT_FALSE(cat.AddTable(bad_index).ok());
}

TEST(CatalogTest, RejectsTwoClusteredIndexes) {
  TableDef def = HashTableDef("A", "a");
  def.indexes.push_back({"a", true});
  def.indexes.push_back({"c", true});
  Catalog cat;
  EXPECT_FALSE(cat.AddTable(def).ok());
}

TEST(CatalogTest, ListByKind) {
  Catalog cat;
  TableDef base = HashTableDef("A", "a");
  TableDef aux = HashTableDef("ar_A", "c");
  aux.kind = TableKind::kAuxiliary;
  ASSERT_TRUE(cat.AddTable(base).ok());
  ASSERT_TRUE(cat.AddTable(aux).ok());
  EXPECT_EQ(cat.ListNames().size(), 2u);
  EXPECT_EQ(cat.ListNames(TableKind::kBase),
            (std::vector<std::string>{"A"}));
  EXPECT_EQ(cat.ListNames(TableKind::kAuxiliary),
            (std::vector<std::string>{"ar_A"}));
}

TEST(CatalogTest, PartitionColumnResolution) {
  TableDef def = HashTableDef("A", "c");
  EXPECT_EQ(def.PartitionColumn(), 1);
  TableDef rr;
  rr.name = "R";
  rr.schema = AbSchema();
  EXPECT_EQ(rr.PartitionColumn(), -1);
}

TEST(CatalogTest, DropTable) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(HashTableDef("A", "a")).ok());
  EXPECT_TRUE(cat.DropTable("A").ok());
  EXPECT_FALSE(cat.Has("A"));
  EXPECT_TRUE(cat.DropTable("A").IsNotFound());
}

TEST(CatalogTest, IdsAreNeverReused) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(HashTableDef("A", "a")).ok());
  const TableId first = cat.IdOf("A");
  ASSERT_NE(first, kNoTable);
  EXPECT_EQ(cat.Find(first)->name, "A");
  ASSERT_TRUE(cat.DropTable("A").ok());
  EXPECT_EQ(cat.IdOf("A"), kNoTable);
  EXPECT_EQ(cat.Find(first), nullptr);
  // An id taken for derived storage names no table and is skipped too.
  const TableId reserved = cat.NewId();
  EXPECT_EQ(cat.Find(reserved), nullptr);
  ASSERT_TRUE(cat.AddTable(HashTableDef("A", "a")).ok());
  const TableId second = cat.IdOf("A");
  EXPECT_NE(second, first);
  EXPECT_NE(second, reserved);
  EXPECT_EQ((*cat.Get("A"))->id, second);
  EXPECT_EQ(cat.Find(second)->name, "A");
}

// ------------------------------------------------------------- Partitioner

TEST(PartitionerTest, DeterministicAndInRange) {
  for (int64_t k = 0; k < 1000; ++k) {
    int node = NodeForKey(Value{k}, 8);
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 8);
    EXPECT_EQ(node, NodeForKey(Value{k}, 8));
  }
}

TEST(PartitionerTest, SpreadsKeysAcrossNodes) {
  std::set<int> hit;
  for (int64_t k = 0; k < 200; ++k) hit.insert(NodeForKey(Value{k}, 8));
  EXPECT_EQ(hit.size(), 8u);
}

// ---------------------------------------------------------------- System

SystemConfig SmallConfig(int nodes = 4) {
  SystemConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rows_per_page = 4;
  return cfg;
}

TEST(SystemTest, CreateTableOnAllNodes) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(sys.node(i)->fragment(sys.catalog().IdOf("A")), nullptr);
  }
}

TEST(SystemTest, HashInsertRoutesToHomeNode) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  for (int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k * 10}}).ok());
  }
  EXPECT_EQ(sys.RowCount("A"), 40u);
  // Every row is on its hash home node.
  const TableId a = sys.catalog().IdOf("A");
  for (int i = 0; i < 4; ++i) {
    sys.node(i)->fragment(a)->ForEach([&](LocalRowId, const Row& row) {
      EXPECT_EQ(NodeForKey(row[0], 4), i) << RowToString(row);
      return true;
    });
  }
}

TEST(SystemTest, RoundRobinSpreadsEvenly) {
  ParallelSystem sys(SmallConfig());
  TableDef def;
  def.name = "V";
  def.schema = AbSchema();
  def.partition = PartitionSpec::RoundRobin();
  ASSERT_TRUE(sys.CreateTable(def).ok());
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(sys.Insert("V", {Value{k}, Value{k}}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.node(i)->fragment(sys.catalog().IdOf("V"))->num_rows(), 5u);
  }
}

TEST(SystemTest, InsertChargesOneInsertAtOneNode) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  sys.cost().Reset();
  ASSERT_TRUE(sys.Insert("A", {Value{7}, Value{8}}).ok());
  EXPECT_DOUBLE_EQ(sys.cost().TotalWorkload(), 2.0);  // INSERT = 2 I/Os
  EXPECT_EQ(sys.cost().NodesTouched(), 1);
  EXPECT_EQ(sys.cost().TotalSends(), 0u);
}

TEST(SystemTest, InsertValidatesRows) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  EXPECT_FALSE(sys.Insert("A", {Value{"bad"}, Value{1}}).ok());
  EXPECT_FALSE(sys.Insert("NoSuch", {Value{1}, Value{1}}).ok());
}

TEST(SystemTest, DeleteExactHashRouted) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  Row row = {Value{3}, Value{33}};
  ASSERT_TRUE(sys.Insert("A", row).ok());
  ASSERT_TRUE(sys.DeleteExact("A", row).ok());
  EXPECT_EQ(sys.RowCount("A"), 0u);
  EXPECT_TRUE(sys.DeleteExact("A", row).IsNotFound());
}

TEST(SystemTest, DeleteExactRoundRobinSearchesNodes) {
  ParallelSystem sys(SmallConfig());
  TableDef def;
  def.name = "V";
  def.schema = AbSchema();
  ASSERT_TRUE(sys.CreateTable(def).ok());
  Row row = {Value{3}, Value{33}};
  ASSERT_TRUE(sys.Insert("V", row).ok());
  ASSERT_TRUE(sys.DeleteExact("V", row).ok());
  EXPECT_EQ(sys.RowCount("V"), 0u);
}

TEST(SystemTest, SelectEqOnPartitionColumnIsSingleNode) {
  ParallelSystem sys(SmallConfig());
  TableDef def = HashTableDef("A", "a");
  def.indexes.push_back({"a", false});
  ASSERT_TRUE(sys.CreateTable(def).ok());
  for (int64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}).ok());
  }
  sys.cost().Reset();
  auto rows = sys.SelectEq("A", "a", Value{5});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(sys.cost().NodesTouched(), 1);
}

TEST(SystemTest, SelectEqOnOtherColumnTouchesAllNodes) {
  ParallelSystem sys(SmallConfig());
  TableDef def = HashTableDef("A", "a");
  def.indexes.push_back({"c", false});
  ASSERT_TRUE(sys.CreateTable(def).ok());
  for (int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k % 4}}).ok());
  }
  sys.cost().Reset();
  auto rows = sys.SelectEq("A", "c", Value{2});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 8u);
  EXPECT_EQ(sys.cost().NodesTouched(), 4);
}

TEST(SystemTest, IndexProbeChargesFetchesOnlyWhenNonClustered) {
  ParallelSystem sys(SmallConfig(1));
  TableDef def;
  def.name = "B";
  def.schema = AbSchema();
  def.partition = PartitionSpec::Hash("a");
  def.indexes.push_back({"c", false});
  ASSERT_TRUE(sys.CreateTable(def).ok());
  TableDef defc;
  defc.name = "Bc";
  defc.schema = AbSchema();
  defc.partition = PartitionSpec::Hash("a");
  defc.indexes.push_back({"c", true});
  ASSERT_TRUE(sys.CreateTable(defc).ok());
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(sys.Insert("B", {Value{k}, Value{1}}).ok());
    ASSERT_TRUE(sys.Insert("Bc", {Value{k}, Value{1}}).ok());
  }
  int c_col = 1;
  sys.cost().Reset();
  ASSERT_TRUE(
      sys.node(0)->IndexProbe(sys.catalog().IdOf("B"), c_col, Value{1}).ok());
  // Non-clustered: 1 search + 6 fetches = 7 I/Os.
  EXPECT_DOUBLE_EQ(sys.cost().TotalWorkload(), 7.0);
  sys.cost().Reset();
  ASSERT_TRUE(
      sys.node(0)->IndexProbe(sys.catalog().IdOf("Bc"), c_col, Value{1}).ok());
  // Clustered: 1 search, matches ride along on the leaf page.
  EXPECT_DOUBLE_EQ(sys.cost().TotalWorkload(), 1.0);
}

TEST(SystemTest, ScanAllGathersEverything) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k}}).ok());
  }
  std::vector<Row> rows = sys.ScanAll("A");
  EXPECT_EQ(rows.size(), 10u);
}

TEST(SystemTest, CheckInvariantsPasses) {
  ParallelSystem sys(SmallConfig());
  TableDef def = HashTableDef("A", "a");
  def.indexes.push_back({"c", false});
  ASSERT_TRUE(sys.CreateTable(def).ok());
  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(sys.Insert("A", {Value{k}, Value{k % 3}}).ok());
  }
  EXPECT_TRUE(sys.CheckInvariants().ok());
}

TEST(SystemTest, DropTableRemovesFragments) {
  ParallelSystem sys(SmallConfig());
  ASSERT_TRUE(sys.CreateTable(HashTableDef("A", "a")).ok());
  const TableId id = sys.catalog().IdOf("A");
  ASSERT_TRUE(sys.DropTable("A").ok());
  EXPECT_EQ(sys.node(0)->fragment(id), nullptr);
  EXPECT_FALSE(sys.catalog().Has("A"));
}

}  // namespace
}  // namespace pjvm
