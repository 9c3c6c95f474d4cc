#include <gtest/gtest.h>

#include "sql/executor.h"
#include "tests/view_test_util.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

constexpr MaintenanceMethod kAr = MaintenanceMethod::kAuxRelation;
constexpr MaintenanceMethod kGi = MaintenanceMethod::kGlobalIndex;

// ----------------------------------------------------- View deregistration

TEST(UnregisterViewTest, DropsViewTableAndStructures) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  EXPECT_EQ(fx.manager->structures().TableNames(kAr).size(), 2u);
  ASSERT_TRUE(fx.manager->UnregisterView("JV").ok());
  EXPECT_FALSE(fx.sys->catalog().Has("JV"));
  EXPECT_TRUE(fx.manager->structures().TableNames(kAr).empty());
  EXPECT_EQ(fx.manager->view("JV"), nullptr);
  // A delta after the drop maintains nothing and still succeeds.
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(3)).ok());
}

TEST(UnregisterViewTest, SharedArSurvivesUntilLastView) {
  TwoTableFixture fx(4, 8, 2);
  JoinViewDef v1 = fx.MakeView("JV1");
  JoinViewDef v2 = fx.MakeView("JV2", false);
  ASSERT_TRUE(
      fx.manager->RegisterView(v1, MaintenanceMethod::kAuxRelation).ok());
  ASSERT_TRUE(
      fx.manager->RegisterView(v2, MaintenanceMethod::kAuxRelation).ok());
  EXPECT_EQ(fx.manager->structures().TableNames(kAr).size(), 2u);
  ASSERT_TRUE(fx.manager->UnregisterView("JV1").ok());
  // JV2 still needs the ARs.
  EXPECT_EQ(fx.manager->structures().TableNames(kAr).size(), 2u);
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(5)).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
  ASSERT_TRUE(fx.manager->UnregisterView("JV2").ok());
  EXPECT_TRUE(fx.manager->structures().TableNames(kAr).empty());
}

TEST(UnregisterViewTest, GiReleasedAtZeroReferences) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kGlobalIndex)
                  .ok());
  EXPECT_EQ(fx.manager->structures().TableNames(kGi).size(), 2u);
  ASSERT_TRUE(fx.manager->UnregisterView("JV").ok());
  EXPECT_TRUE(fx.manager->structures().TableNames(kGi).empty());
}

TEST(UnregisterViewTest, NameCanBeReusedAfterDrop) {
  TwoTableFixture fx(2, 5, 1);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
                  .ok());
  ASSERT_TRUE(fx.manager->UnregisterView("JV").ok());
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(2)).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(UnregisterViewTest, UnknownViewIsNotFound) {
  TwoTableFixture fx(2, 5, 1);
  EXPECT_TRUE(fx.manager->UnregisterView("ghost").IsNotFound());
}

TEST(UnregisterViewTest, DropViewStatementWorks) {
  TwoTableFixture fx(2, 5, 1);
  sql::Executor executor(fx.manager.get());
  std::ostringstream out;
  ASSERT_TRUE(executor
                  .Execute(
                      "CREATE VIEW jv AS SELECT * FROM A, B WHERE A.c = B.d;",
                      out)
                  .ok())
      << out.str();
  ASSERT_TRUE(executor.Execute("DROP VIEW jv;", out).ok());
  EXPECT_FALSE(fx.sys->catalog().Has("jv"));
  EXPECT_FALSE(executor.Execute("DROP VIEW jv;", out).ok());
  EXPECT_FALSE(executor.Execute("DROP TABLE A;", out).ok());
}

// ---------------------------------------------------------- Checkpointing

TEST(CheckpointTest, RecoveryRestoresSnapshotPlusSuffix) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  ASSERT_TRUE(fx.sys->Checkpoint().ok());
  // WALs are truncated by the checkpoint.
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(fx.sys->node(n)->wal().size(), 0u) << "node " << n;
  }
  // Post-checkpoint work, including a delete of pre-checkpoint data.
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(6)).ok());
  ASSERT_TRUE(fx.manager->DeleteRow("A", {Value{1}, Value{1}, Value{100}}).ok());
  auto base_before = RowBag(fx.sys->ScanAll("A"));
  auto view_before = RowBag(fx.manager->view("JV")->Contents());

  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.manager->RecoverViews().ok());
  EXPECT_EQ(RowBag(fx.sys->ScanAll("A")), base_before);
  EXPECT_EQ(RowBag(fx.manager->view("JV")->Contents()), view_before);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

TEST(CheckpointTest, RefusedWhileTransactionInFlight) {
  TwoTableFixture fx(2, 4, 1);
  uint64_t txn = fx.sys->Begin();
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(1), txn).ok());
  EXPECT_TRUE(fx.sys->Checkpoint().IsAborted());
  ASSERT_TRUE(fx.sys->Commit(txn).ok());
  EXPECT_TRUE(fx.sys->Checkpoint().ok());
}

TEST(CheckpointTest, UncommittedWorkAfterCheckpointStillRollsBack) {
  TwoTableFixture fx(4, 4, 1);
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(0)).ok());
  ASSERT_TRUE(fx.sys->Checkpoint().ok());
  uint64_t txn = fx.sys->Begin();
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(1), txn).ok());
  fx.sys->Crash();  // Txn never committed.
  ASSERT_TRUE(fx.sys->Recover().ok());
  EXPECT_EQ(fx.sys->RowCount("A"), 1u);
}

TEST(CheckpointTest, RepeatedCheckpointsKeepLatestState) {
  TwoTableFixture fx(2, 4, 1);
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(0)).ok());
  ASSERT_TRUE(fx.sys->Checkpoint().ok());
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(1)).ok());
  ASSERT_TRUE(fx.sys->Checkpoint().ok());
  ASSERT_TRUE(fx.sys->Insert("A", fx.NextARow(2)).ok());
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  EXPECT_EQ(fx.sys->RowCount("A"), 3u);
  EXPECT_TRUE(fx.sys->CheckInvariants().ok());
}

TEST(CheckpointTest, DroppedTableObsoletesItsSnapshot) {
  TwoTableFixture fx(2, 4, 1);
  TableDef extra = MakeTableDef("X", CSchema(), "g");
  fx.sys->CreateTable(extra).Check();
  fx.sys->Insert("X", {Value{1}, Value{2}, Value{3}}).Check();
  ASSERT_TRUE(fx.sys->Checkpoint().ok());
  ASSERT_TRUE(fx.sys->DropTable("X").ok());
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  EXPECT_FALSE(fx.sys->catalog().Has("X"));
  EXPECT_TRUE(fx.sys->CheckInvariants().ok());
}

// ------------------------------------------- Re-created tables and views

// A table dropped and re-created under its name is a new incarnation with a
// new id: recovery replays neither the old one's log records nor its
// checkpoint image into it. The parameter takes a checkpoint before the drop.
class RecreatedTableTest : public ::testing::TestWithParam<bool> {};

TEST_P(RecreatedTableTest, RecreatedTableStartsEmptyAfterCrash) {
  TwoTableFixture fx(2, 4, 1);
  const TableDef def = MakeTableDef("T", CSchema(), "g");
  ASSERT_TRUE(fx.sys->CreateTable(def).ok());
  ASSERT_TRUE(fx.sys->Insert("T", {Value{1}, Value{1}, Value{1}}).ok());
  if (GetParam()) {
    ASSERT_TRUE(fx.sys->Checkpoint().ok());
  }
  ASSERT_TRUE(fx.sys->DropTable("T").ok());
  ASSERT_TRUE(fx.sys->CreateTable(def).ok());
  ASSERT_TRUE(fx.sys->Insert("T", {Value{2}, Value{2}, Value{2}}).ok());
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  EXPECT_EQ(fx.sys->ScanAll("T"),
            (std::vector<Row>{{Value{2}, Value{2}, Value{2}}}));
  EXPECT_TRUE(fx.sys->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(CheckpointBeforeDrop, RecreatedTableTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Checkpoint" : "NoCheckpoint";
                         });

// Unregistering a view drops its table (and its AR/GI tables); registering
// it again creates new ones under the same names. Recovery must rebuild
// each view row once, not once per incarnation.
class ReRegisteredViewTest
    : public ::testing::TestWithParam<MaintenanceMethod> {};

TEST_P(ReRegisteredViewTest, ReRegisteredViewSurvivesCrash) {
  TwoTableFixture fx(4, 8, 2);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), GetParam()).ok());
  ASSERT_TRUE(fx.manager->UnregisterView("JV").ok());
  ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), GetParam()).ok());
  const auto view_before = RowBag(fx.manager->view("JV")->Contents());
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.manager->RecoverViews().ok());
  EXPECT_EQ(RowBag(fx.manager->view("JV")->Contents()), view_before);
  Status st = fx.manager->CheckAllConsistent();
  EXPECT_TRUE(st.ok()) << st;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ReRegisteredViewTest,
    ::testing::Values(MaintenanceMethod::kNaive, kAr, kGi),
    [](const ::testing::TestParamInfo<MaintenanceMethod>& info) {
      return std::string(MaintenanceMethodToString(info.param));
    });

}  // namespace
}  // namespace pjvm
