#include <gtest/gtest.h>

#include <tuple>

#include "tests/view_test_util.h"
#include "view/maintainer.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// The central property of the whole system: for every maintenance method,
// every cluster size, and every view-partitioning choice, the materialized
// view stays equal (as a bag) to the join recomputed from scratch under a
// random stream of inserts, deletes, and updates.
class MaintenanceProperty
    : public ::testing::TestWithParam<
          std::tuple<MaintenanceMethod, int /*nodes*/, bool /*view on A attr*/>> {
};

TEST_P(MaintenanceProperty, ViewMatchesFromScratchUnderRandomOps) {
  auto [method, nodes, partition_on_a] = GetParam();
  TwoTableFixture fx(nodes, /*b_keys=*/12, /*fanout=*/2);
  ASSERT_TRUE(
      fx.manager->RegisterView(fx.MakeView("JV", partition_on_a), method).ok());

  Rng rng(2024 + nodes + static_cast<int>(method));
  std::vector<Row> live_a;
  for (int step = 0; step < 120; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.55 || live_a.empty()) {
      Row row = fx.NextARow(rng.UniformInt(0, 15));  // Some keys miss B.
      ASSERT_TRUE(fx.manager->InsertRow("A", row).ok()) << step;
      live_a.push_back(row);
    } else if (dice < 0.8) {
      size_t pick = rng.Next() % live_a.size();
      ASSERT_TRUE(fx.manager->DeleteRow("A", live_a[pick]).ok()) << step;
      live_a.erase(live_a.begin() + pick);
    } else {
      size_t pick = rng.Next() % live_a.size();
      Row old_row = live_a[pick];
      Row new_row = old_row;
      new_row[1] = Value{rng.UniformInt(0, 15)};  // Move to another join key.
      new_row[2] = Value{old_row[2].AsInt64() + 1};
      ASSERT_TRUE(fx.manager->UpdateRow("A", old_row, new_row).ok()) << step;
      live_a[pick] = new_row;
    }
    if (step % 30 == 29) {
      ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
          << "step " << step << ": " << fx.manager->CheckAllConsistent();
    }
  }
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

std::string MaintenancePropertyName(
    const ::testing::TestParamInfo<MaintenanceProperty::ParamType>& info) {
  std::string name = MaintenanceMethodToString(std::get<0>(info.param));
  name += "_L" + std::to_string(std::get<1>(info.param));
  name += std::get<2>(info.param) ? "_partA" : "_roundrobin";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MaintenanceProperty,
    ::testing::Combine(::testing::Values(MaintenanceMethod::kNaive,
                                         MaintenanceMethod::kAuxRelation,
                                         MaintenanceMethod::kGlobalIndex),
                       ::testing::Values(1, 3, 8),
                       ::testing::Values(true, false)),
    MaintenancePropertyName);

std::string MethodName(
    const ::testing::TestParamInfo<MaintenanceMethod>& info) {
  return MaintenanceMethodToString(info.param);
}

// Updates on the *other* base relation (B) must maintain the view too: "the
// situation in which base relation B is updated is the same except we switch
// the roles of A and B".
class BothSidesTest : public ::testing::TestWithParam<MaintenanceMethod> {};

TEST_P(BothSidesTest, UpdatesOnEitherBaseMaintainView) {
  TwoTableFixture fx(4, 6, 2);
  ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), GetParam()).ok());
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(3)).ok());
  // Insert new B rows on key 3: view gains rows via the B side.
  size_t before = fx.manager->view("JV")->RowCount();
  ASSERT_TRUE(
      fx.manager->InsertRow("B", {Value{900}, Value{3}, Value{1}}).ok());
  EXPECT_GT(fx.manager->view("JV")->RowCount(), before);
  // Delete one of the original B rows.
  Row victim = {Value{6}, Value{3}, Value{60}};
  ASSERT_TRUE(fx.manager->DeleteRow("B", victim).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, BothSidesTest,
                         ::testing::Values(MaintenanceMethod::kNaive,
                                           MaintenanceMethod::kAuxRelation,
                                           MaintenanceMethod::kGlobalIndex),
                         MethodName);

// All three methods must produce byte-identical view contents.
TEST(MethodEquivalenceTest, IdenticalContentsForIdenticalStreams) {
  std::vector<RowCounts> bags;
  for (MaintenanceMethod method :
       {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
        MaintenanceMethod::kGlobalIndex}) {
    TwoTableFixture fx(4, 10, 3);
    ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), method).ok());
    Rng rng(7);
    std::vector<Row> live;
    for (int step = 0; step < 60; ++step) {
      if (rng.Bernoulli(0.7) || live.empty()) {
        Row row = fx.NextARow(rng.UniformInt(0, 12));
        ASSERT_TRUE(fx.manager->InsertRow("A", row).ok());
        live.push_back(row);
      } else {
        size_t pick = rng.Next() % live.size();
        ASSERT_TRUE(fx.manager->DeleteRow("A", live[pick]).ok());
        live.erase(live.begin() + pick);
      }
    }
    bags.push_back(RowBag(fx.manager->view("JV")->Contents()));
  }
  EXPECT_EQ(bags[0], bags[1]);
  EXPECT_EQ(bags[0], bags[2]);
  EXPECT_FALSE(bags[0].empty());
}

// ------------------------------------------------------- Locality claims

// For a single-tuple insert: the AR method does view-side work at O(1)
// nodes, the GI method at <= 2 + 2K nodes, and the naive method at all L.
TEST(LocalityTest, NodesTouchedMatchesMethodClass) {
  constexpr int kNodes = 8;
  auto nodes_touched_for = [&](MaintenanceMethod method) {
    TwoTableFixture fx(kNodes, 10, /*fanout=*/2);
    fx.MakeView("JV");
    fx.manager->RegisterView(fx.MakeView("JV"), method).Check();
    fx.sys->cost().Reset();
    fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
    return fx.sys->cost().NodesTouched();
  };
  // Naive broadcasts: every node does work.
  EXPECT_EQ(nodes_touched_for(MaintenanceMethod::kNaive), kNodes);
  // AR: arrival node + AR/join node + view node (some may coincide).
  EXPECT_LE(nodes_touched_for(MaintenanceMethod::kAuxRelation), 3);
  // GI: arrival + GI home + K owner nodes + view node, K = min(N=2, L).
  EXPECT_LE(nodes_touched_for(MaintenanceMethod::kGlobalIndex), 2 + 2 * 2);
}

TEST(LocalityTest, NaiveSendsGrowWithL) {
  uint64_t sends_4, sends_8;
  for (int* out_is_unused = nullptr; out_is_unused == nullptr;) {
    TwoTableFixture fx4(4, 10, 2);
    fx4.manager->RegisterView(fx4.MakeView("JV"), MaintenanceMethod::kNaive)
        .Check();
    fx4.sys->cost().Reset();
    fx4.manager->InsertRow("A", fx4.NextARow(5)).status().Check();
    sends_4 = fx4.sys->cost().TotalSends();
    TwoTableFixture fx8(8, 10, 2);
    fx8.manager->RegisterView(fx8.MakeView("JV"), MaintenanceMethod::kNaive)
        .Check();
    fx8.sys->cost().Reset();
    fx8.manager->InsertRow("A", fx8.NextARow(5)).status().Check();
    sends_8 = fx8.sys->cost().TotalSends();
    break;
  }
  EXPECT_GT(sends_8, sends_4);
  EXPECT_GE(sends_8, 8u);  // At least the L broadcast sends.
}

TEST(LocalityTest, AuxSendsConstantInL) {
  uint64_t prev = 0;
  for (int nodes : {4, 8, 16}) {
    TwoTableFixture fx(nodes, 10, 2);
    fx.manager->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation)
        .Check();
    fx.sys->cost().Reset();
    fx.manager->InsertRow("A", fx.NextARow(5)).status().Check();
    uint64_t sends = fx.sys->cost().TotalSends();
    EXPECT_LE(sends, 3u) << "L=" << nodes;  // AR ship + join-result ship (+1 slack).
    if (prev != 0) {
      EXPECT_EQ(sends, prev);
    }
    prev = sends;
  }
}

// ---------------------------------------------- Three-way views (Sec. 2.2)

JoinViewDef ThreeWayView() {
  JoinViewDef def;
  def.name = "JV3";
  def.bases = {{"A", "A"}, {"B", "B"}, {"C", "C"}};
  // A.c = B.d, B.f = C.g : a chain.
  def.edges = {{{"A", "c"}, {"B", "d"}}, {{"B", "f"}, {"C", "g"}}};
  def.partition_on = ColumnRef{"A", "e"};
  return def;
}

class ThreeWayFixtureTest : public ::testing::TestWithParam<MaintenanceMethod> {
 protected:
  void SetUp() override {
    SystemConfig cfg;
    cfg.num_nodes = 4;
    cfg.rows_per_page = 4;
    sys_ = std::make_unique<ParallelSystem>(cfg);
    sys_->CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
    sys_->CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
    sys_->CreateTable(MakeTableDef("C", CSchema(), "h")).Check();
    // B: join key d in [0,6), f in [0,4). C: g in [0,4), fanout 2.
    for (int64_t k = 0; k < 12; ++k) {
      sys_->Insert("B", {Value{k}, Value{k % 6}, Value{k % 4}}).Check();
    }
    for (int64_t k = 0; k < 8; ++k) {
      sys_->Insert("C", {Value{k % 4}, Value{k + 100}, Value{k}}).Check();
    }
    manager_ = std::make_unique<ViewManager>(sys_.get());
  }

  std::unique_ptr<ParallelSystem> sys_;
  std::unique_ptr<ViewManager> manager_;
};

// Counter hashes (view_test_util.h's CounterHash) after the A, B and C
// phases, per method. They pin second steps, middle-base seeding and every
// per-node charge of the 3-way plans; they must not move unless a change says
// why the paper's counters do.
uint64_t ThreeWayPhaseHash(MaintenanceMethod method, int phase) {
  // Rows: naive, AR, GI. Columns: after the A, B and C phases.
  static const uint64_t kHashes[3][3] = {
      {0x187eb116c8b2259aull, 0xe1ba55fe75549fefull, 0x9ec6b65484f20941ull},
      {0x119968117b5c6100ull, 0x24916e2dacf364c2ull, 0xad7ea079e571ad81ull},
      {0x7936430ac8a1a178ull, 0xac2af75e1e2251b9ull, 0xb29bf5c42cd5b5e5ull},
  };
  return kHashes[static_cast<int>(method)][phase];
}

TEST_P(ThreeWayFixtureTest, DeltasOnEveryBaseMaintainView) {
  ASSERT_TRUE(manager_->RegisterView(ThreeWayView(), GetParam()).ok());
  Rng rng(31);
  // Delta on A.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(manager_
                    ->InsertRow("A", {Value{i}, Value{rng.UniformInt(0, 7)},
                                      Value{i * 10}})
                    .ok());
  }
  ASSERT_TRUE(manager_->CheckAllConsistent().ok())
      << manager_->CheckAllConsistent();
  EXPECT_EQ(CounterHash(*sys_), ThreeWayPhaseHash(GetParam(), 0));
  // Delta on the middle relation B (two incident edges -> two ARs/GIs).
  ASSERT_TRUE(
      manager_->InsertRow("B", {Value{50}, Value{2}, Value{1}}).ok());
  ASSERT_TRUE(manager_->DeleteRow("B", {Value{3}, Value{3}, Value{3}}).ok());
  ASSERT_TRUE(manager_->CheckAllConsistent().ok())
      << manager_->CheckAllConsistent();
  EXPECT_EQ(CounterHash(*sys_), ThreeWayPhaseHash(GetParam(), 1));
  // Delta on C.
  ASSERT_TRUE(manager_->InsertRow("C", {Value{1}, Value{999}, Value{9}}).ok());
  ASSERT_TRUE(manager_->DeleteRow("C", {Value{0}, Value{100}, Value{0}}).ok());
  ASSERT_TRUE(manager_->CheckAllConsistent().ok())
      << manager_->CheckAllConsistent();
  EXPECT_EQ(CounterHash(*sys_), ThreeWayPhaseHash(GetParam(), 2));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ThreeWayFixtureTest,
                         ::testing::Values(MaintenanceMethod::kNaive,
                                           MaintenanceMethod::kAuxRelation,
                                           MaintenanceMethod::kGlobalIndex),
                         MethodName);

// --------------------------------------- Selections / projections / sharing

TEST(MinimizedViewTest, SelectionAndProjectionMaintainedCorrectly) {
  for (MaintenanceMethod method :
       {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
        MaintenanceMethod::kGlobalIndex}) {
    TwoTableFixture fx(4, 8, 2);
    JoinViewDef def = fx.MakeView("JV", false);
    def.projection = {{"A", "e"}, {"B", "f"}};
    def.selections = {{{"A", "e"}, PredOp::kGe, Value{300}}};
    ASSERT_TRUE(fx.manager->RegisterView(def, method).ok());
    // e = 100*k: rows 0,1,2 fail the predicate; 3.. pass.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i % 8)).ok());
    }
    ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
        << MaintenanceMethodToString(method) << ": "
        << fx.manager->CheckAllConsistent();
    // Delete a passing row and a failing row.
    ASSERT_TRUE(
        fx.manager->DeleteRow("A", {Value{4}, Value{4}, Value{400}}).ok());
    ASSERT_TRUE(
        fx.manager->DeleteRow("A", {Value{1}, Value{1}, Value{100}}).ok());
    ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
        << MaintenanceMethodToString(method) << ": "
        << fx.manager->CheckAllConsistent();
  }
}

TEST(SharedArTest, TwoViewsShareOneArOnSameAttribute) {
  TwoTableFixture fx(4, 8, 2);
  JoinViewDef v1 = fx.MakeView("JV1");
  JoinViewDef v2 = fx.MakeView("JV2", false);
  v2.projection = {{"A", "a"}, {"B", "f"}};
  ASSERT_TRUE(
      fx.manager->RegisterView(v1, MaintenanceMethod::kAuxRelation).ok());
  ASSERT_TRUE(
      fx.manager->RegisterView(v2, MaintenanceMethod::kAuxRelation).ok());
  // One AR per (table, join column): A.c and B.d.
  const StructureRegistry& structures = fx.manager->structures();
  EXPECT_EQ(structures.TableNames(MaintenanceMethod::kAuxRelation).size(), 2u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  ASSERT_TRUE(fx.manager->DeleteRow("A", {Value{2}, Value{2}, Value{200}}).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

TEST(SharedArTest, DifferentSelectionsGeneralizeTheSharedAr) {
  TwoTableFixture fx(4, 8, 2);
  JoinViewDef v1 = fx.MakeView("JV1");
  v1.selections = {{{"B", "f"}, PredOp::kLt, Value{40}}};
  JoinViewDef v2 = fx.MakeView("JV2");
  v2.selections = {{{"B", "f"}, PredOp::kGe, Value{40}}};
  ASSERT_TRUE(
      fx.manager->RegisterView(v1, MaintenanceMethod::kAuxRelation).ok());
  ASSERT_TRUE(
      fx.manager->RegisterView(v2, MaintenanceMethod::kAuxRelation).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  ASSERT_TRUE(
      fx.manager->InsertRow("B", {Value{200}, Value{3}, Value{39}}).ok());
  ASSERT_TRUE(
      fx.manager->InsertRow("B", {Value{201}, Value{3}, Value{41}}).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

// ---------------------------------------------------------- Mixed methods

TEST(MixedMethodsTest, DifferentViewsDifferentMethodsCoexist) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV_naive"),
                                 MaintenanceMethod::kNaive)
                  .ok());
  JoinViewDef v2 = fx.MakeView("JV_ar");
  v2.name = "JV_ar";
  ASSERT_TRUE(
      fx.manager->RegisterView(v2, MaintenanceMethod::kAuxRelation).ok());
  JoinViewDef v3 = fx.MakeView("JV_gi");
  v3.name = "JV_gi";
  ASSERT_TRUE(
      fx.manager->RegisterView(v3, MaintenanceMethod::kGlobalIndex).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i % 9)).ok());
  }
  ASSERT_TRUE(fx.manager->DeleteRow("A", {Value{3}, Value{3}, Value{300}}).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
  EXPECT_EQ(RowBag(fx.manager->view("JV_naive")->Contents()),
            RowBag(fx.manager->view("JV_ar")->Contents()));

  // The oracle holds every structure to its base: a row missing, off its
  // key's home, or (GI) pointing at the wrong lrid is Internal, naming the
  // structure. Each edit goes straight to a fragment and is then undone.
  auto expect_drift = [&](const std::string& structure) {
    Status st = fx.manager->CheckAllConsistent();
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st;
    EXPECT_NE(st.message().find(structure), std::string::npos) << st;
  };
  auto expect_ok = [&] {
    Status st = fx.manager->CheckAllConsistent();
    EXPECT_TRUE(st.ok()) << st;
  };
  for (const std::string structure : {"__ar_B_d", "__gi_B_d"}) {
    const TableId id = fx.sys->catalog().IdOf(structure);
    int home = 0;
    while (fx.sys->node(home)->fragment(id)->num_rows() == 0) ++home;
    TableFragment* frag = fx.sys->node(home)->fragment(id);
    TableFragment* other = fx.sys->node((home + 1) % 4)->fragment(id);
    Row row;
    frag->ForEach([&](LocalRowId, const Row& first) {
      row = first;
      return false;
    });
    ASSERT_TRUE(frag->DeleteExact(row).ok());
    expect_drift(structure);
    ASSERT_TRUE(other->Insert(row).ok());  // Present, but off its home.
    expect_drift(structure);
    ASSERT_TRUE(other->DeleteExact(row).ok());
    ASSERT_TRUE(frag->Insert(row).ok());
    expect_ok();
  }
  // Two base rows with one key on one node must carry distinct lrids in the
  // GI. Five A rows with join key 8 over four nodes put two on one node;
  // pointing one entry at the other's lrid keeps the entry count and every
  // entry resolving to a live row with the key, so only a multiset check
  // catches it.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(8)).ok());
  }
  const std::string gi = "__gi_A_c";
  TableFragment* gi_frag =
      fx.sys->node(fx.sys->HomeNodeForKey(Value{8}))
          ->fragment(fx.sys->catalog().IdOf(gi));
  std::map<int64_t, Row> first_on_node;
  Row entry, twin;
  gi_frag->ForEach([&](LocalRowId, const Row& row) {
    if (row[0] != Value{8}) return true;
    auto [it, fresh] = first_on_node.try_emplace(row[1].AsInt64(), row);
    if (fresh) return true;
    twin = it->second;
    entry = row;
    return false;
  });
  ASSERT_FALSE(entry.empty());
  Row aliased = entry;
  aliased[2] = twin[2];
  ASSERT_TRUE(gi_frag->DeleteExact(entry).ok());
  ASSERT_TRUE(gi_frag->Insert(aliased).ok());
  expect_drift(gi);
  ASSERT_TRUE(gi_frag->DeleteExact(aliased).ok());
  ASSERT_TRUE(gi_frag->Insert(entry).ok());
  expect_ok();
}

// -------------------------------------------------------- Large batches

// A batch big enough to cross the index/sort-merge boundary must still be
// correct (the crossover only changes costs, never contents). The counter
// hash after the batch pins which side of the crossover each step took.
TEST(LargeBatchTest, SortMergeCrossoverKeepsViewCorrect) {
  const uint64_t kHashes[3] = {0xab534e218f27a3f1ull,   // naive
                               0x7d10ff9bb0f2fb00ull,   // AR
                               0x1433c33814d7ec2full};  // GI
  for (MaintenanceMethod method :
       {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
        MaintenanceMethod::kGlobalIndex}) {
    // Tiny pages + tiny sort memory force the sort-merge path quickly.
    SystemConfig cfg;
    cfg.num_nodes = 4;
    cfg.rows_per_page = 2;
    cfg.sort_memory_pages = 2;
    ParallelSystem sys(cfg);
    sys.CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
    sys.CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
    for (int64_t k = 0; k < 10; ++k) {
      sys.Insert("B", {Value{k}, Value{k % 5}, Value{k}}).Check();
    }
    ViewManager manager(&sys);
    JoinViewDef def;
    def.name = "JV";
    def.bases = {{"A", "A"}, {"B", "B"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}};
    def.partition_on = ColumnRef{"A", "e"};
    ASSERT_TRUE(manager.RegisterView(def, method).ok());
    std::vector<Row> batch;
    for (int64_t i = 0; i < 200; ++i) {
      batch.push_back({Value{i}, Value{i % 5}, Value{i}});
    }
    ASSERT_TRUE(manager.ApplyDelta(DeltaBatch::Inserts("A", batch)).ok());
    ASSERT_TRUE(manager.CheckAllConsistent().ok())
        << MaintenanceMethodToString(method) << ": "
        << manager.CheckAllConsistent();
    EXPECT_EQ(manager.view("JV")->RowCount(), 200u * 2u);
    EXPECT_EQ(CounterHash(sys), kHashes[static_cast<int>(method)])
        << MaintenanceMethodToString(method);
  }
}

// ------------------------------------------------------ Crash / recovery

TEST(RecoveryTest, ViewsSurviveCrashAndGisRebuild) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kGlobalIndex)
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  auto before = RowBag(fx.manager->view("JV")->Contents());
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.manager->RecoverViews().ok());
  EXPECT_EQ(RowBag(fx.manager->view("JV")->Contents()), before);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
  // And maintenance keeps working after recovery.
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(3)).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(RecoveryTest, FailedMaintenanceTxnLeavesNoPartialState) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(2)).ok());
  auto view_before = RowBag(fx.manager->view("JV")->Contents());
  size_t base_before = fx.sys->RowCount("A");
  // Crash the commit of the next maintenance transaction after prepare.
  fx.sys->txns().InjectFailure(FailurePoint::kAfterPrepare);
  EXPECT_FALSE(fx.manager->InsertRow("A", fx.NextARow(3)).ok());
  ASSERT_TRUE(fx.sys->Recover().ok());
  // Base, AR, and view all reflect only the first (committed) insert.
  EXPECT_EQ(fx.sys->RowCount("A"), base_before);
  EXPECT_EQ(RowBag(fx.manager->view("JV")->Contents()), view_before);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

// ------------------------------------------------------------ Edge cases

TEST(EdgeCaseTest, InsertWithNoMatchesLeavesViewUnchanged) {
  TwoTableFixture fx(4, 5, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(999)).ok());
  EXPECT_EQ(fx.manager->view("JV")->RowCount(), 0u);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(EdgeCaseTest, DeleteOfMissingBaseRowFailsCleanly) {
  TwoTableFixture fx(2, 5, 1);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
                  .ok());
  EXPECT_FALSE(
      fx.manager->DeleteRow("A", {Value{1}, Value{1}, Value{1}}).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(EdgeCaseTest, DuplicateViewRegistrationRejected) {
  TwoTableFixture fx(2, 5, 1);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
                  .ok());
  EXPECT_EQ(fx.manager->RegisterView(fx.MakeView("JV"),
                                     MaintenanceMethod::kAuxRelation)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(EdgeCaseTest, BackfillPopulatesPreexistingData) {
  TwoTableFixture fx(4, 6, 2);
  for (int i = 0; i < 5; ++i) {
    fx.sys->Insert("A", fx.NextARow(i)).Check();
  }
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  EXPECT_EQ(fx.manager->view("JV")->RowCount(), 10u);  // 5 x fanout 2.
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(EdgeCaseTest, DeltaOnUnrelatedTableIsNoOp) {
  TwoTableFixture fx(2, 5, 1);
  TableDef other = MakeTableDef("Other", CSchema(), "g");
  fx.sys->CreateTable(other).Check();
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive)
                  .ok());
  ASSERT_TRUE(
      fx.manager->InsertRow("Other", {Value{1}, Value{2}, Value{3}}).ok());
  EXPECT_EQ(fx.manager->view("JV")->RowCount(), 0u);
}

}  // namespace
}  // namespace pjvm
