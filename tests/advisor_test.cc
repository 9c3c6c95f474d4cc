#include <gtest/gtest.h>

#include <cmath>

#include "tests/view_test_util.h"
#include "view/hybrid_advisor.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

WorkloadProfile BaseProfile() {
  WorkloadProfile p;
  p.num_nodes = 32;
  p.fanout = 10;
  p.tuples_per_txn = 16;
  p.other_relation_pages = 6400;
  p.memory_pages = 100;
  p.base_clustered_on_join = true;
  p.storage_budget_bytes = 1e9;
  p.ar_bytes = 1e6;
  p.gi_bytes = 1e5;
  return p;
}

TEST(AdvisorTest, SmallUpdatesWithSpacePickAuxRelation) {
  Advice advice = ChooseMethod(BaseProfile());
  EXPECT_EQ(advice.method, MaintenanceMethod::kAuxRelation);
  EXPECT_LT(advice.aux_io, advice.naive_io);
  EXPECT_LT(advice.aux_io, advice.gi_io);
  EXPECT_FALSE(advice.rationale.empty());
}

TEST(AdvisorTest, TightBudgetFallsBackToGlobalIndex) {
  WorkloadProfile p = BaseProfile();
  p.storage_budget_bytes = 5e5;  // GI fits, AR does not.
  Advice advice = ChooseMethod(p);
  EXPECT_EQ(advice.method, MaintenanceMethod::kGlobalIndex);
  EXPECT_TRUE(std::isinf(advice.aux_io));
}

TEST(AdvisorTest, NoBudgetMeansNaive) {
  WorkloadProfile p = BaseProfile();
  p.storage_budget_bytes = 0;
  Advice advice = ChooseMethod(p);
  EXPECT_EQ(advice.method, MaintenanceMethod::kNaive);
  EXPECT_TRUE(std::isinf(advice.aux_io));
  EXPECT_TRUE(std::isinf(advice.gi_io));
}

TEST(AdvisorTest, HugeUpdatesPickNaiveEvenWithSpace) {
  // The paper's Figure 10 insight: once a transaction's tuple count rivals
  // |B| pages, the naive method with clustered base relations wins.
  WorkloadProfile p = BaseProfile();
  p.tuples_per_txn = 7000;
  p.num_nodes = 8;
  Advice advice = ChooseMethod(p);
  EXPECT_EQ(advice.method, MaintenanceMethod::kNaive);
  EXPECT_LT(advice.naive_io, advice.aux_io);
}

TEST(AdvisorTest, AdviceAgreesWithMeasuredEngineCosts) {
  // The advisor must rank methods the same way the real engine does for the
  // small-update case.
  auto measured_io = [](MaintenanceMethod method) {
    TwoTableFixture fx(8, 50, 4);
    fx.manager->RegisterView(fx.MakeView("JV"), method).Check();
    fx.sys->cost().Reset();
    fx.manager->InsertRow("A", fx.NextARow(7)).status().Check();
    return fx.sys->cost().TotalWorkload();
  };
  double naive = measured_io(MaintenanceMethod::kNaive);
  double aux = measured_io(MaintenanceMethod::kAuxRelation);
  double gi = measured_io(MaintenanceMethod::kGlobalIndex);
  WorkloadProfile p = BaseProfile();
  p.num_nodes = 8;
  p.fanout = 4;
  p.tuples_per_txn = 1;
  Advice advice = ChooseMethod(p);
  EXPECT_EQ(advice.method, MaintenanceMethod::kAuxRelation);
  EXPECT_LT(aux, gi);
  EXPECT_LT(gi, naive);
}

// ------------------------------------------ AR storage accounting (ablation)

TEST(ArStorageTest, MinimizedArIsSmallerThanFullCopy) {
  TwoTableFixture fx(4, 30, 4);
  JoinViewDef def = fx.MakeView("JV", false);
  def.projection = {{"A", "e"}, {"B", "f"}};  // Drop keys from the AR.
  ASSERT_TRUE(
      fx.manager->RegisterView(def, MaintenanceMethod::kAuxRelation).ok());
  size_t minimized =
      fx.manager->structures().StorageBytes(MaintenanceMethod::kAuxRelation);
  size_t full_copy = fx.manager->structures().UnminimizedBytes();
  EXPECT_GT(minimized, 0u);
  EXPECT_LT(minimized, full_copy);
}

TEST(ArStorageTest, FilteredArStoresOnlyPassingRows) {
  TwoTableFixture fx(4, 30, 2);
  JoinViewDef def = fx.MakeView("JV");
  def.selections = {{{"B", "f"}, PredOp::kLt, Value{100}}};  // f = 10*bkey.
  ASSERT_TRUE(
      fx.manager->RegisterView(def, MaintenanceMethod::kAuxRelation).ok());
  // Only B rows with f < 100 (bkey < 10) are in the AR.
  size_t ar_rows = 0;
  for (const std::string& name :
       fx.manager->structures().TableNames(MaintenanceMethod::kAuxRelation)) {
    if (name.find("_B_") != std::string::npos) {
      ar_rows = fx.sys->RowCount(name);
    }
  }
  EXPECT_EQ(ar_rows, 10u);
  EXPECT_LT(ar_rows, fx.sys->RowCount("B"));
}

TEST(ArStorageTest, GiIsSmallerThanAr) {
  // The paper: "global indices usually require less extra storage than
  // auxiliary relations". Make base rows wide so the difference shows.
  SystemConfig cfg;
  cfg.num_nodes = 4;
  ParallelSystem sys(cfg);
  TableDef a = MakeTableDef("A", ASchema(), "a");
  TableDef b;
  b.name = "B";
  b.schema = Schema({{"b", ValueType::kInt64},
                     {"d", ValueType::kInt64},
                     {"f", ValueType::kInt64},
                     {"pad", ValueType::kString}});
  b.partition = PartitionSpec::Hash("b");
  sys.CreateTable(a).Check();
  sys.CreateTable(b).Check();
  for (int64_t k = 0; k < 50; ++k) {
    sys.Insert("B", {Value{k}, Value{k % 10}, Value{k},
                     Value{std::string(100, 'x')}})
        .Check();
  }
  JoinViewDef def;
  def.name = "JV";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  ViewManager m_ar(&sys);
  ASSERT_TRUE(m_ar.RegisterView(def, MaintenanceMethod::kAuxRelation).ok());
  size_t ar_bytes =
      m_ar.structures().StorageBytes(MaintenanceMethod::kAuxRelation);

  ParallelSystem sys2(cfg);
  sys2.CreateTable(a).Check();
  sys2.CreateTable(b).Check();
  for (int64_t k = 0; k < 50; ++k) {
    sys2.Insert("B", {Value{k}, Value{k % 10}, Value{k},
                      Value{std::string(100, 'x')}})
        .Check();
  }
  ViewManager m_gi(&sys2);
  ASSERT_TRUE(m_gi.RegisterView(def, MaintenanceMethod::kGlobalIndex).ok());
  size_t gi_bytes =
      m_gi.structures().StorageBytes(MaintenanceMethod::kGlobalIndex);
  EXPECT_LT(gi_bytes, ar_bytes);
  EXPECT_GT(gi_bytes, 0u);
}

}  // namespace
}  // namespace pjvm
