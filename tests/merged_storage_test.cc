#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "view/merged_storage.h"
#include "view/view_manager.h"
#include "view_test_util.h"

namespace pjvm {
namespace {

// Fixture for the merged co-clustered layout (SystemConfig::merged_ar_storage):
// A(a,c,e) and B(b,d,f) hash-partitioned on their keys, joined on c = d, the
// view partitioned on the join attribute so the cluster {A.c, B.d, V} is
// non-empty. `merged` toggles the layout; everything else is identical, which
// is what the fingerprint-equivalence tests rely on.
struct MergedFixture {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> manager;
  int64_t next_a = 0;
  int64_t next_b = 1000;

  explicit MergedFixture(bool merged, int num_nodes = 4, bool locking = false,
                         bool with_c = false) {
    SystemConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.rows_per_page = 4;
    cfg.merged_ar_storage = merged;
    cfg.enable_locking = locking;
    sys = std::make_unique<ParallelSystem>(cfg);
    sys->CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
    sys->CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
    if (with_c) sys->CreateTable(MakeTableDef("C", CSchema(), "g")).Check();
    // Seed B with two rows per join key in [0, 10).
    for (int64_t k = 0; k < 10; ++k) {
      for (int64_t r = 0; r < 2; ++r) {
        sys->Insert("B", {Value{next_b}, Value{k}, Value{next_b * 10}}).Check();
        ++next_b;
      }
    }
    manager = std::make_unique<ViewManager>(sys.get());
  }

  // V = A join B on c = d, partitioned on the join attribute A.c.
  JoinViewDef TwoTableView(const std::string& name = "V") {
    JoinViewDef def;
    def.name = name;
    def.bases = {{"A", "A"}, {"B", "B"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}};
    def.partition_on = ColumnRef{"A", "c"};
    return def;
  }

  // V3 = A join B join C, all on the same attribute (c = d, d = g), so the
  // cluster's join-edge closure covers all three bases.
  JoinViewDef ThreeTableView(const std::string& name = "V3") {
    JoinViewDef def;
    def.name = name;
    def.bases = {{"A", "A"}, {"B", "B"}, {"C", "C"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}, {{"B", "d"}, {"C", "g"}}};
    def.partition_on = ColumnRef{"A", "c"};
    return def;
  }

  Row NextARow(int64_t join_key) {
    int64_t k = next_a++;
    return {Value{k}, Value{join_key}, Value{k * 100}};
  }
  Row NextBRow(int64_t join_key) {
    int64_t k = next_b++;
    return {Value{k}, Value{join_key}, Value{k * 10}};
  }

  RowCounts ViewBag(const std::string& name = "V") {
    return RowBag(manager->view(name)->Contents());
  }

  uint64_t TotalDescents() {
    uint64_t total = 0;
    for (const NodeCounters& c : sys->cost().Snapshot()) total += c.descents;
    return total;
  }
};

// The same mixed delta stream (inserts and deletes on both bases, plus an
// update) applied to one fixture.
void RunChurn(MergedFixture& fx) {
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(k)).ok());
  }
  ASSERT_TRUE(fx.manager->InsertRow("B", fx.NextBRow(3)).ok());
  ASSERT_TRUE(fx.manager->InsertRow("B", fx.NextBRow(4)).ok());
  // Delete one seeded B row (join key 0) and one A row.
  ASSERT_TRUE(
      fx.manager
          ->DeleteRow("B", {Value{int64_t{1000}}, Value{int64_t{0}},
                            Value{int64_t{10000}}})
          .ok());
  ASSERT_TRUE(fx.manager
                  ->DeleteRow("A", {Value{int64_t{5}}, Value{int64_t{5}},
                                    Value{int64_t{500}}})
                  .ok());
  // Update: move an A row from join key 7 to join key 2.
  ASSERT_TRUE(fx.manager
                  ->UpdateRow("A",
                              {Value{int64_t{7}}, Value{int64_t{7}},
                               Value{int64_t{700}}},
                              {Value{int64_t{7}}, Value{int64_t{2}},
                               Value{int64_t{700}}})
                  .ok());
}

TEST(MergedStorageTest, RegistersClusterMembersWhenEligible) {
  MergedFixture fx(/*merged=*/true);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  MergedViewStorage* store = fx.manager->merged_storage("V");
  ASSERT_NE(store, nullptr);
  // The join-edge closure of A.c contains both edge endpoints.
  ASSERT_EQ(store->members().size(), 2u);
  EXPECT_TRUE(store->CoversBase(0, 1));  // A.c
  EXPECT_TRUE(store->CoversBase(1, 1));  // B.d
  EXPECT_FALSE(store->CoversBase(0, 2));
  // The backfill is already mirrored (B's 20 seeded rows; no A, no view).
  EXPECT_GT(store->TreeBytes(), 0u);
  ASSERT_TRUE(store->CheckConsistent().ok());
}

TEST(MergedStorageTest, KnobOffOrIneligibleKeepsSeparateLayout) {
  // Knob off: no merged store.
  MergedFixture off(/*merged=*/false);
  ASSERT_TRUE(off.manager
                  ->RegisterView(off.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  EXPECT_EQ(off.manager->merged_storage("V"), nullptr);

  // Knob on but the view partitioned on a non-join attribute (A.e): the
  // cluster is empty and the separate layout is kept silently.
  MergedFixture on(/*merged=*/true);
  JoinViewDef def = on.TwoTableView("VP");
  def.partition_on = ColumnRef{"A", "e"};
  ASSERT_TRUE(
      on.manager->RegisterView(def, MaintenanceMethod::kAuxRelation).ok());
  EXPECT_EQ(on.manager->merged_storage("VP"), nullptr);
  ASSERT_TRUE(on.manager->InsertRow("A", on.NextARow(1)).ok());
  ASSERT_TRUE(on.manager->CheckAllConsistent().ok());

  // Knob on but a non-AR method: ineligible.
  MergedFixture gi(/*merged=*/true);
  ASSERT_TRUE(gi.manager
                  ->RegisterView(gi.TwoTableView(),
                                 MaintenanceMethod::kGlobalIndex)
                  .ok());
  EXPECT_EQ(gi.manager->merged_storage("V"), nullptr);
}

TEST(MergedStorageTest, FingerprintIdenticalToSeparateLayout) {
  MergedFixture merged(/*merged=*/true);
  MergedFixture separate(/*merged=*/false);
  for (MergedFixture* fx : {&merged, &separate}) {
    ASSERT_TRUE(fx->manager
                    ->RegisterView(fx->TwoTableView(),
                                   MaintenanceMethod::kAuxRelation)
                    .ok());
    RunChurn(*fx);
    ASSERT_TRUE(fx->manager->CheckAllConsistent().ok());
  }
  EXPECT_EQ(merged.ViewBag(), separate.ViewBag());
  EXPECT_FALSE(merged.ViewBag().empty());
}

TEST(MergedStorageTest, ThreeTableChainFullyMerged) {
  MergedFixture merged(/*merged=*/true, 4, false, /*with_c=*/true);
  MergedFixture separate(/*merged=*/false, 4, false, /*with_c=*/true);
  for (MergedFixture* fx : {&merged, &separate}) {
    for (int64_t k = 0; k < 10; ++k) {
      fx->sys->Insert("C", {Value{k}, Value{k + 50}, Value{k * 7}}).Check();
    }
    ASSERT_TRUE(fx->manager
                    ->RegisterView(fx->ThreeTableView(),
                                   MaintenanceMethod::kAuxRelation)
                    .ok());
  }
  MergedViewStorage* store = merged.manager->merged_storage("V3");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->members().size(), 3u);
  for (MergedFixture* fx : {&merged, &separate}) {
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(fx->manager->InsertRow("A", fx->NextARow(k)).ok());
    }
    ASSERT_TRUE(fx->manager->InsertRow("B", fx->NextBRow(2)).ok());
    ASSERT_TRUE(
        fx->manager
            ->DeleteRow("C", {Value{int64_t{4}}, Value{int64_t{54}},
                              Value{int64_t{28}}})
            .ok());
    ASSERT_TRUE(fx->manager->CheckAllConsistent().ok());
  }
  EXPECT_EQ(merged.ViewBag("V3"), separate.ViewBag("V3"));
  EXPECT_FALSE(merged.ViewBag("V3").empty());
}

TEST(MergedStorageTest, DescentReductionAtLeastThirtyPercent) {
  // The ISSUE's acceptance bar: at the default 4-node config, per-delta
  // maintenance descents drop >= 30% with contents fingerprint-identical.
  MergedFixture merged(/*merged=*/true);
  MergedFixture separate(/*merged=*/false);
  uint64_t counts[2] = {0, 0};
  int i = 0;
  for (MergedFixture* fx : {&merged, &separate}) {
    ASSERT_TRUE(fx->manager
                    ->RegisterView(fx->TwoTableView(),
                                   MaintenanceMethod::kAuxRelation)
                    .ok());
    uint64_t before = fx->TotalDescents();
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(fx->manager->InsertRow("A", fx->NextARow(k)).ok());
    }
    counts[i++] = fx->TotalDescents() - before;
  }
  EXPECT_EQ(merged.ViewBag(), separate.ViewBag());
  ASSERT_GT(counts[1], 0u);
  EXPECT_LE(counts[0] * 100, counts[1] * 70)
      << "merged=" << counts[0] << " separate=" << counts[1];
  // Each maintenance transaction opened at least one key range.
  EXPECT_GT(merged.manager->merged_storage("V")->range_ops(), 0u);
}

TEST(MergedStorageTest, AbortRollsBackTreeEdits) {
  MergedFixture fx(/*merged=*/true);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  MergedViewStorage* store = fx.manager->merged_storage("V");
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CheckConsistent().ok());
  // An explicit transaction edits the tree eagerly (insert + delete of a
  // seeded B mirror row); the journal must undo both on abort.
  uint64_t txn = fx.sys->Begin();
  Row view_row = {Value{int64_t{1}}, Value{int64_t{1}}, Value{int64_t{100}},
                  Value{int64_t{1000}}, Value{int64_t{1}},
                  Value{int64_t{10000}}};
  int node = fx.sys->HomeNodeForKey(Value{int64_t{1}});
  ASSERT_TRUE(store->ApplyViewEdit(txn, node, view_row, /*is_delete=*/false)
                  .ok());
  EXPECT_FALSE(store->CheckConsistent().ok());  // Tree now leads the heap.
  store->OnAbort(txn);
  fx.sys->Abort(txn).Check();
  ASSERT_TRUE(store->CheckConsistent().ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(MergedStorageTest, CrashRecoveryRebuildsTrees) {
  MergedFixture fx(/*merged=*/true);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  RunChurn(fx);
  RowCounts before = fx.ViewBag();
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.manager->RecoverViews().ok());
  EXPECT_EQ(fx.ViewBag(), before);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
  // Post-recovery churn keeps working against the rebuilt trees.
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(2)).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(MergedStorageTest, TableBytesAttributesTreesToView) {
  MergedFixture fx(/*merged=*/true);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  RunChurn(fx);
  MergedViewStorage* store = fx.manager->merged_storage("V");
  ASSERT_NE(store, nullptr);
  ASSERT_GT(store->TreeBytes(), 0u);
  // The overlay folds the merged trees into the view's storage line.
  EXPECT_GE(fx.sys->TableBytes("V"), store->TreeBytes());
  // Unregister drops the overlay and the store with the view.
  ASSERT_TRUE(fx.manager->UnregisterView("V").ok());
  EXPECT_EQ(fx.manager->merged_storage("V"), nullptr);
}

TEST(MergedStorageTest, ConcurrentDeltasStayConsistent) {
  // Wait-die victims must roll their tree edits back before releasing their
  // range locks; invariant 10 (CheckConsistent inside CheckAllConsistent)
  // catches any torn state. Also the TSan target for the merged layout.
  MergedFixture fx(/*merged=*/true, 4, /*locking=*/true);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.TwoTableView(),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 12;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fx, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Distinct key spaces per thread for row identity, shared join keys
        // [0, 4) for range-lock contention.
        int64_t key = 10000 + t * 1000 + i;
        int64_t join_key = (t + i) % 4;
        Row row = {Value{key}, Value{join_key}, Value{key * 100}};
        Result<MaintenanceReport> r =
            fx.manager->ApplyDelta(DeltaBatch::Inserts("A", {row}));
        if (!r.ok()) {
          // Bounded-retry exhaustion surfaces Aborted; anything else is a
          // real failure.
          ASSERT_TRUE(r.status().IsAborted()) << r.status();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

}  // namespace
}  // namespace pjvm
