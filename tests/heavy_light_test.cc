#include "view/heavy_light.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/metrics_registry.h"
#include "tests/view_test_util.h"
#include "txn/lock_manager.h"
#include "view/maintainer.h"
#include "view/materialized_view.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// A two-table setup with one Zipf-style hot join key: B.d = 0 has
// `hot_rows` rows while keys 1..light_keys have one each, so an A row with
// c = 0 classifies heavy and every other key classifies light at the
// default threshold.
struct SkewFixture {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> mgr;
  int64_t next_a = 0;

  explicit SkewFixture(SystemConfig cfg, int64_t hot_rows = 40,
                       int64_t light_keys = 20) {
    cfg.rows_per_page = 4;
    sys = std::make_unique<ParallelSystem>(cfg);
    sys->CreateTable(MakeTableDef("A", ASchema(), "a")).Check();
    sys->CreateTable(MakeTableDef("B", BSchema(), "b")).Check();
    int64_t bkey = 0;
    for (int64_t r = 0; r < hot_rows; ++r) {
      sys->Insert("B", {Value{bkey}, Value{int64_t{0}}, Value{bkey * 10}})
          .Check();
      ++bkey;
    }
    for (int64_t k = 1; k <= light_keys; ++k) {
      sys->Insert("B", {Value{bkey}, Value{k}, Value{bkey * 10}}).Check();
      ++bkey;
    }
    mgr = std::make_unique<ViewManager>(sys.get());
  }

  JoinViewDef View(const std::string& name) {
    JoinViewDef def;
    def.name = name;
    def.bases = {{"A", "A"}, {"B", "B"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}};
    def.partition_on = ColumnRef{"A", "e"};
    return def;
  }

  Row ARow(int64_t join_key) {
    int64_t k = next_a++;
    return {Value{k}, Value{join_key}, Value{k * 100}};
  }
};

SystemConfig HlConfig(int num_nodes) {
  SystemConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.heavy_light = true;
  return cfg;
}

// ------------------------------------------------------------- classifier

TEST(HeavyLightClassifierTest, HysteresisPromotesAtThresholdDemotesAtHalf) {
  // Single node so the merged statistics are exact: key 0 x10 plus keys
  // 1..8 x1 gives avg fanout 18/9 = 2 and ratio(key 0) = 10/2 = 5 >= 4.
  SystemConfig cfg;
  cfg.num_nodes = 1;
  ParallelSystem sys(cfg);
  ASSERT_TRUE(sys.CreateTable(MakeTableDef("B", BSchema(), "b")).ok());
  std::vector<Row> zeros;
  int64_t bkey = 0;
  for (int r = 0; r < 10; ++r) {
    Row row{Value{bkey}, Value{int64_t{0}}, Value{bkey * 10}};
    zeros.push_back(row);
    ASSERT_TRUE(sys.Insert("B", row).ok());
    ++bkey;
  }
  for (int64_t k = 1; k <= 8; ++k) {
    ASSERT_TRUE(sys.Insert("B", {Value{bkey}, Value{k}, Value{bkey * 10}}).ok());
    ++bkey;
  }

  HeavyLightClassifier cls(&sys, /*stats_refresh_ops=*/1);
  EXPECT_TRUE(cls.HeavyKey("B", 1, Value{int64_t{0}}));
  EXPECT_FALSE(cls.HeavyKey("B", 1, Value{int64_t{3}}));
  EXPECT_EQ(cls.heavy_keys_live(), 1u);

  // Drift into the hysteresis band [promote/2, promote): key 0 x5 gives
  // ratio 5 / (13/9) ~= 3.46. A promoted key stays heavy there; a fresh
  // classifier scores the same ratio light — that asymmetry IS the
  // hysteresis, and it's what stops a boundary key from thrashing.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys.DeleteExact("B", zeros.back()).ok());
    zeros.pop_back();
  }
  cls.RecordOps("B", 1);  // crosses stats_refresh_ops -> rebuild on next use
  EXPECT_TRUE(cls.HeavyKey("B", 1, Value{int64_t{0}}));
  HeavyLightClassifier fresh(&sys, /*stats_refresh_ops=*/1);
  EXPECT_FALSE(fresh.HeavyKey("B", 1, Value{int64_t{0}}));

  // Below half the threshold the promoted key demotes: key 0 x2 gives
  // ratio 2 / (10/9) = 1.8 < 2.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sys.DeleteExact("B", zeros.back()).ok());
    zeros.pop_back();
  }
  cls.RecordOps("B", 1);
  EXPECT_FALSE(cls.HeavyKey("B", 1, Value{int64_t{0}}));
  EXPECT_EQ(cls.heavy_keys_live(), 0u);
}

TEST(HeavyLightClassifierTest, StatsRefreshFollowsHotKeyDrift) {
  // Regression for the stale-statistics bug: histograms were built once and
  // never refreshed, so after the hot key drifts the classifier kept
  // scoring yesterday's distribution. A threshold the test never reaches
  // preserves that behaviour for contrast.
  SystemConfig cfg;
  cfg.num_nodes = 1;
  ParallelSystem sys(cfg);
  ASSERT_TRUE(sys.CreateTable(MakeTableDef("B", BSchema(), "b")).ok());
  std::vector<Row> zeros;
  int64_t bkey = 0;
  for (int r = 0; r < 12; ++r) {
    Row row{Value{bkey}, Value{int64_t{0}}, Value{bkey * 10}};
    zeros.push_back(row);
    ASSERT_TRUE(sys.Insert("B", row).ok());
    ++bkey;
  }
  for (int64_t k = 1; k <= 6; ++k) {
    ASSERT_TRUE(sys.Insert("B", {Value{bkey}, Value{k}, Value{bkey * 10}}).ok());
    ++bkey;
  }

  HeavyLightClassifier refreshing(&sys, /*stats_refresh_ops=*/8);
  HeavyLightClassifier stale(&sys, /*stats_refresh_ops=*/1000);
  const Value key0{int64_t{0}};
  const Value key5{int64_t{5}};
  EXPECT_TRUE(refreshing.HeavyKey("B", 1, key0));
  EXPECT_FALSE(refreshing.HeavyKey("B", 1, key5));
  EXPECT_TRUE(stale.HeavyKey("B", 1, key0));
  EXPECT_FALSE(stale.HeavyKey("B", 1, key5));

  // The hot key moves from 0 to 5.
  for (const Row& row : zeros) ASSERT_TRUE(sys.DeleteExact("B", row).ok());
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE(sys.Insert("B", {Value{bkey}, Value{int64_t{5}}, Value{1}}).ok());
    ++bkey;
  }
  refreshing.RecordOps("B", 24);
  stale.RecordOps("B", 24);

  EXPECT_TRUE(refreshing.HeavyKey("B", 1, key5));   // follows the drift
  EXPECT_FALSE(refreshing.HeavyKey("B", 1, key0));  // demoted
  EXPECT_FALSE(stale.HeavyKey("B", 1, key5));       // the pre-fix behaviour
  EXPECT_TRUE(stale.HeavyKey("B", 1, key0));
}

TEST(HeavyLightStoreTest, AppendCancelsOppositeSignChurn) {
  DeferredDeltaStore store;
  Row r1{Value{1}, Value{0}, Value{100}};
  Row r2{Value{2}, Value{0}, Value{200}};
  EXPECT_FALSE(store.Append("V", 0, /*is_delete=*/false, r1, {0, 0}));
  EXPECT_FALSE(store.Append("V", 0, /*is_delete=*/false, r2, {0, 1}));
  EXPECT_EQ(store.rows("V"), 2u);
  // A delete matching a buffered insert annihilates it.
  EXPECT_TRUE(store.Append("V", 0, /*is_delete=*/true, r1, {0, 0}));
  EXPECT_EQ(store.rows("V"), 1u);
  EXPECT_EQ(store.cancelled(), 2u);
  // An unmatched delete buffers; an insert matching it annihilates.
  Row r3{Value{3}, Value{0}, Value{300}};
  EXPECT_FALSE(store.Append("V", 0, /*is_delete=*/true, r3, {1, 0}));
  EXPECT_TRUE(store.Append("V", 0, /*is_delete=*/false, r3, {1, 1}));
  EXPECT_EQ(store.rows("V"), 1u);
  EXPECT_EQ(store.Find("V")->inserts.size(), 1u);
  EXPECT_EQ(RowToString(store.Find("V")->inserts[0]), RowToString(r2));
  store.Clear("V");
  EXPECT_EQ(store.total_rows(), 0u);
}

// -------------------------------------------------------- fold equivalence

// Runs one skewed update stream (hot inserts, hot churn, light traffic)
// under the given settings and returns the view's settled content bag.
RowCounts RunStream(bool heavy_light, MaintenanceMethod method, bool mvcc,
                    size_t* deferred_peak) {
  SystemConfig cfg;
  cfg.num_nodes = 4;
  cfg.heavy_light = heavy_light;
  cfg.deferred_fold_rows = 1000;  // no auto-fold: the test folds explicitly
  cfg.mvcc_reads = mvcc;
  SkewFixture fx(cfg);
  fx.mgr->RegisterView(fx.View("V"), method).Check();

  std::vector<Row> hot;
  for (int i = 0; i < 6; ++i) {
    hot.push_back(fx.ARow(0));
    EXPECT_TRUE(fx.mgr->InsertRow("A", hot.back()).ok());
  }
  // Churn: half the hot inserts are deleted within the deferral window.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(fx.mgr->DeleteRow("A", hot[i]).ok());
  }
  for (int64_t k = 1; k <= 5; ++k) {
    EXPECT_TRUE(fx.mgr->InsertRow("A", fx.ARow(k)).ok());
  }
  Row light_churn = fx.ARow(7);
  EXPECT_TRUE(fx.mgr->InsertRow("A", light_churn).ok());
  EXPECT_TRUE(fx.mgr->DeleteRow("A", light_churn).ok());

  if (deferred_peak != nullptr) *deferred_peak = fx.mgr->DeferredRows("V");
  EXPECT_TRUE(fx.mgr->FoldAllDeferred().ok());
  EXPECT_EQ(fx.mgr->DeferredRows("V"), 0u);
  EXPECT_TRUE(fx.mgr->CheckAllConsistent().ok());
  return RowBag(fx.mgr->view("V")->Contents());
}

TEST(HeavyLightFoldTest, FoldEqualsEagerByteForByteAllMethods) {
  for (MaintenanceMethod method :
       {MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
        MaintenanceMethod::kGlobalIndex}) {
    for (bool mvcc : {false, true}) {
      SCOPED_TRACE(std::string(MaintenanceMethodToString(method)) +
                   (mvcc ? "+mvcc" : ""));
      size_t deferred_peak = 0;
      RowCounts deferred =
          RunStream(/*heavy_light=*/true, method, mvcc, &deferred_peak);
      RowCounts eager =
          RunStream(/*heavy_light=*/false, method, mvcc, nullptr);
      // Something was actually deferred (the hot rows minus cancelled
      // churn), and the folded contents match eager maintenance exactly.
      EXPECT_EQ(deferred_peak, 3u);
      EXPECT_EQ(deferred, eager);
    }
  }
}

TEST(HeavyLightFoldTest, ForeignBaseDeltaFoldsFirst) {
  // A delta on B while V buffers A-side rows must fold the buffer before
  // its own base update, or the fold would join against a moved neighbour.
  SystemConfig cfg = HlConfig(4);
  cfg.deferred_fold_rows = 0;  // event-only folds
  SkewFixture fx(cfg);
  fx.mgr->RegisterView(fx.View("V"), MaintenanceMethod::kAuxRelation).Check();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.mgr->InsertRow("A", fx.ARow(0)).ok());
  }
  ASSERT_EQ(fx.mgr->DeferredRows("V"), 4u);
  // New hot-key B row: joins with the buffered A rows too.
  ASSERT_TRUE(
      fx.mgr->InsertRow("B", {Value{999}, Value{int64_t{0}}, Value{1}}).ok());
  EXPECT_EQ(fx.mgr->DeferredRows("V"), 0u);  // folded before the B delta
  ASSERT_TRUE(fx.mgr->CheckAllConsistent().ok());
}

TEST(HeavyLightFoldTest, SizeTriggerFoldsAutomatically) {
  SystemConfig cfg = HlConfig(4);
  cfg.deferred_fold_rows = 3;
  SkewFixture fx(cfg);
  fx.mgr->RegisterView(fx.View("V"), MaintenanceMethod::kGlobalIndex).Check();
  Counter* folds = MetricsRegistry::Global().counter("pjvm_deferred_folds");
  const uint64_t before = folds->value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.mgr->InsertRow("A", fx.ARow(0)).ok());
  }
  EXPECT_EQ(fx.mgr->DeferredRows("V"), 0u);  // third row crossed the trigger
  EXPECT_EQ(folds->value(), before + 1);
  ASSERT_TRUE(fx.mgr->CheckAllConsistent().ok());
}

// --------------------------------------------------- fold under contention

TEST(HeavyLightFoldTest, FoldRetriesAsWaitDieVictimWithoutLossOrDuplication) {
  SystemConfig cfg = HlConfig(2);
  cfg.enable_locking = true;
  cfg.deferred_fold_rows = 0;
  cfg.maintain_retry_base_us = 2000;
  SkewFixture fx(cfg);
  fx.mgr->RegisterView(fx.View("V"), MaintenanceMethod::kAuxRelation).Check();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.mgr->InsertRow("A", fx.ARow(0)).ok());
  }
  ASSERT_EQ(fx.mgr->DeferredRows("V"), 4u);

  Counter* retries = MetricsRegistry::Global().counter("pjvm_maintain_retries");
  const uint64_t retries_before = retries->value();
  // An older transaction holds the view fragment the fold X-locks up front,
  // so every fold attempt is the wait-die victim until the blocker commits.
  uint64_t blocker = fx.sys->Begin();
  const LockId view_fragment = LockId::Table(0, fx.sys->catalog().IdOf("V"));
  ASSERT_TRUE(fx.sys->locks()
                  .Acquire(blocker, view_fragment, LockMode::kExclusive)
                  .ok());
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fx.sys->Commit(blocker).Check();
  });
  ASSERT_TRUE(fx.mgr->FoldView("V").ok());
  release.join();

  EXPECT_GT(retries->value(), retries_before);  // at least one aborted attempt
  EXPECT_EQ(fx.mgr->DeferredRows("V"), 0u);
  // Nothing lost (all four hot derivations present) and nothing duplicated
  // (an attempt that aborted must not have re-applied buffered rows).
  ASSERT_TRUE(fx.mgr->CheckAllConsistent().ok());
}

// ------------------------------------------------------------ crash safety

TEST(HeavyLightFoldTest, CrashBeforeFoldRecoversViaRecoverViews) {
  SystemConfig cfg = HlConfig(4);
  cfg.deferred_fold_rows = 0;
  SkewFixture fx(cfg);
  fx.mgr->RegisterView(fx.View("V"), MaintenanceMethod::kGlobalIndex).Check();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.mgr->InsertRow("A", fx.ARow(0)).ok());
  }
  ASSERT_TRUE(fx.mgr->InsertRow("A", fx.ARow(2)).ok());
  ASSERT_GT(fx.mgr->DeferredRows("V"), 0u);

  // Crash with the fold still owed. The buffered rows' base updates were
  // committed transactions, so they survive; their view derivations were
  // never applied.
  fx.sys->Crash();
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.mgr->RecoverViews().ok());
  EXPECT_EQ(fx.mgr->DeferredRows("V"), 0u);
  ASSERT_TRUE(fx.mgr->CheckAllConsistent().ok());
  // The recovered view really contains the hot derivations.
  auto expected = EvaluateViewFromScratch(fx.sys.get(),
                                          fx.mgr->registration("V")->bound);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RowBag(fx.mgr->view("V")->Contents()), RowBag(*expected));
  EXPECT_GT(expected->size(), 0u);
}

}  // namespace
}  // namespace pjvm
