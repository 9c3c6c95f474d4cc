#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/metrics_registry.h"
#include "tests/view_test_util.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

// Deferred (batch-refresh) maintenance: the traditional warehouse mode the
// paper's operational scenario is contrasted against. A deferred view lags
// base updates and is brought current by RefreshView().

TEST(DeferredViewTest, StaysStaleUntilRefreshed) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation,
                                 MaintenanceTiming::kDeferred)
                  .ok());
  EXPECT_FALSE(fx.manager->IsStale("JV"));
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(3)).ok());
  EXPECT_TRUE(fx.manager->IsStale("JV"));
  EXPECT_EQ(fx.manager->view("JV")->RowCount(), 0u);  // Lagging.
  // A stale deferred view is exempt from the consistency oracle.
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
  ASSERT_TRUE(fx.manager->RefreshView("JV").ok());
  EXPECT_FALSE(fx.manager->IsStale("JV"));
  EXPECT_EQ(fx.manager->view("JV")->RowCount(), 2u);
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

TEST(DeferredViewTest, RefreshHandlesInsertsDeletesUpdates) {
  TwoTableFixture fx(4, 10, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV", false),
                                 MaintenanceMethod::kNaive,
                                 MaintenanceTiming::kDeferred)
                  .ok());
  Rng rng(5);
  std::vector<Row> live;
  for (int step = 0; step < 40; ++step) {
    if (rng.Bernoulli(0.6) || live.empty()) {
      Row row = fx.NextARow(rng.UniformInt(0, 12));
      ASSERT_TRUE(fx.manager->InsertRow("A", row).ok());
      live.push_back(row);
    } else {
      size_t pick = rng.Next() % live.size();
      ASSERT_TRUE(fx.manager->DeleteRow("A", live[pick]).ok());
      live.erase(live.begin() + pick);
    }
    if (step % 13 == 12) {
      ASSERT_TRUE(fx.manager->RefreshView("JV").ok()) << step;
      ASSERT_TRUE(fx.manager->CheckAllConsistent().ok()) << step;
    }
  }
  ASSERT_TRUE(fx.manager->RefreshAllViews().ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
}

TEST(DeferredViewTest, RefreshSeesEverySignificantDigit) {
  // Two DOUBLEs equal to six significant digits: the refresh diff and the
  // consistency oracle must tell them apart.
  ParallelSystem sys(TwoTableFixture::Config(4));
  TableDef p = MakeTableDef("P", Schema({{"p", ValueType::kInt64},
                                         {"k", ValueType::kInt64},
                                         {"x", ValueType::kDouble}}),
                            "p");
  TableDef q = MakeTableDef("Q", Schema({{"q", ValueType::kInt64},
                                         {"k", ValueType::kInt64}}),
                            "q");
  ASSERT_TRUE(sys.CreateTable(p).ok());
  ASSERT_TRUE(sys.CreateTable(q).ok());
  ASSERT_TRUE(sys.Insert("Q", {Value{1}, Value{7}}).ok());
  ViewManager manager(&sys);
  const Row before = {Value{1}, Value{7}, Value{1.0000001}};
  const Row after = {Value{1}, Value{7}, Value{1.0000002}};
  ASSERT_TRUE(manager.InsertRow("P", before).ok());
  JoinViewDef def;
  def.name = "PQ";
  def.bases = {{"P", "P"}, {"Q", "Q"}};
  def.edges = {{{"P", "k"}, {"Q", "k"}}};
  def.projection = {{"P", "p"}, {"P", "x"}};
  ASSERT_TRUE(manager
                  .RegisterView(def, MaintenanceMethod::kNaive,
                                MaintenanceTiming::kDeferred)
                  .ok());
  ASSERT_TRUE(manager.UpdateRow("P", before, after).ok());
  EXPECT_TRUE(manager.IsStale("PQ"));
  ASSERT_TRUE(manager.RefreshView("PQ").ok());
  EXPECT_EQ(manager.view("PQ")->Contents(),
            (std::vector<Row>{{Value{1}, Value{1.0000002}}}));
  Status st = manager.CheckAllConsistent();
  EXPECT_TRUE(st.ok()) << st;
  // The oracle itself sees the seventh digit.
  ASSERT_TRUE(sys.DeleteExact("PQ", {Value{1}, Value{1.0000002}}).ok());
  ASSERT_TRUE(sys.Insert("PQ", {Value{1}, Value{1.0000001}}).ok());
  EXPECT_FALSE(manager.CheckAllConsistent().ok());
}

TEST(DeferredViewTest, RefreshOfFreshViewIsNoOp) {
  TwoTableFixture fx(2, 5, 1);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("JV"),
                                 MaintenanceMethod::kAuxRelation,
                                 MaintenanceTiming::kDeferred)
                  .ok());
  fx.sys->cost().Reset();
  ASSERT_TRUE(fx.manager->RefreshView("JV").ok());
  EXPECT_DOUBLE_EQ(fx.sys->cost().TotalWorkload(), 0.0);
  EXPECT_FALSE(fx.manager->RefreshView("ghost").ok());
}

TEST(DeferredViewTest, ImmediateAndDeferredCoexist) {
  TwoTableFixture fx(4, 8, 2);
  ASSERT_TRUE(fx.manager
                  ->RegisterView(fx.MakeView("live"),
                                 MaintenanceMethod::kAuxRelation)
                  .ok());
  JoinViewDef lagged = fx.MakeView("lagged");
  ASSERT_TRUE(fx.manager
                  ->RegisterView(lagged, MaintenanceMethod::kAuxRelation,
                                 MaintenanceTiming::kDeferred)
                  .ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  EXPECT_EQ(fx.manager->view("live")->RowCount(), 12u);
  EXPECT_EQ(fx.manager->view("lagged")->RowCount(), 0u);
  ASSERT_TRUE(fx.manager->RefreshView("lagged").ok());
  EXPECT_EQ(RowBag(fx.manager->view("live")->Contents()),
            RowBag(fx.manager->view("lagged")->Contents()));
}

TEST(DeferredViewTest, RefreshCostIsScanDominatedAndAmortizes) {
  // Immediate maintenance pays per transaction; deferred pays one scan per
  // refresh. For many tiny transactions between refreshes, deferred total
  // cost is lower — the amortization that traditional warehouses exploit,
  // at the price of staleness (the paper's operational scenario rejects
  // exactly this trade).
  auto total_io = [](MaintenanceTiming timing) {
    TwoTableFixture fx(4, 256, 2, /*rows_per_page=*/4);
    fx.manager
        ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kNaive, timing)
        .Check();
    fx.sys->cost().Reset();
    for (int i = 0; i < 64; ++i) {
      fx.manager->InsertRow("A", fx.NextARow(i % 256)).status().Check();
    }
    if (timing == MaintenanceTiming::kDeferred) {
      fx.manager->RefreshView("JV").Check();
    }
    return fx.sys->cost().TotalWorkload();
  };
  double immediate = total_io(MaintenanceTiming::kImmediate);
  double deferred = total_io(MaintenanceTiming::kDeferred);
  EXPECT_LT(deferred, immediate);
}

TEST(DeferredViewTest, AggregateViewsRefreshToo) {
  TwoTableFixture fx(4, 6, 2);
  JoinViewDef agg;
  agg.name = "AGG";
  agg.bases = {{"A", "A"}, {"B", "B"}};
  agg.edges = {{{"A", "c"}, {"B", "d"}}};
  agg.group_by = {{"A", "c"}};
  agg.aggregates = {{AggFn::kCount, {}}};
  ASSERT_TRUE(fx.manager
                  ->RegisterView(agg, MaintenanceMethod::kGlobalIndex,
                                 MaintenanceTiming::kDeferred)
                  .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i % 3)).ok());
  }
  ASSERT_TRUE(fx.manager->RefreshView("AGG").ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok())
      << fx.manager->CheckAllConsistent();
  EXPECT_EQ(fx.manager->view("AGG")->RowCount(), 3u);
}

// ------------------------------------------------ refresh under contention

/// A locking wait-die system with a stale deferred AR view "JV" and an older
/// transaction X-locking every node's fragment of it, so every refresh
/// attempt is the wait-die victim until that holder finishes.
struct BlockedRefresh {
  TwoTableFixture fx;
  uint64_t holder = 0;

  explicit BlockedRefresh(const SystemConfig& cfg) : fx(cfg, 8, 2) {
    fx.manager
        ->RegisterView(fx.MakeView("JV"), MaintenanceMethod::kAuxRelation,
                       MaintenanceTiming::kDeferred)
        .Check();
    fx.manager->InsertRow("A", fx.NextARow(3)).status().Check();
    holder = fx.sys->Begin();
    for (int n = 0; n < fx.sys->num_nodes(); ++n) {
      fx.sys->locks()
          .Acquire(holder, LockId::Table(n, fx.sys->catalog().IdOf("JV")),
                   LockMode::kExclusive)
          .Check();
    }
  }

  static SystemConfig Config() {
    SystemConfig cfg = TwoTableFixture::Config(4);
    cfg.enable_locking = true;
    return cfg;
  }
};

TEST(DeferredViewTest, KilledRefreshLeavesNoTransactionInFlight) {
  // Regression: the refresh used to Begin, write and Commit with no Abort on
  // its error path, so a refresh killed by wait-die stayed active forever
  // and every later Checkpoint was refused.
  SystemConfig cfg = BlockedRefresh::Config();
  cfg.maintain_max_attempts = 1;
  BlockedRefresh blocked(cfg);
  ParallelSystem& sys = *blocked.fx.sys;
  ViewManager& manager = *blocked.fx.manager;

  Status st = manager.RefreshView("JV");
  EXPECT_TRUE(st.IsAborted()) << st;
  EXPECT_TRUE(manager.IsStale("JV"));
  ASSERT_TRUE(sys.Abort(blocked.holder).ok());
  EXPECT_FALSE(sys.txns().HasActive());
  EXPECT_TRUE(sys.Checkpoint().ok());
  // With the holder gone the refresh goes through.
  ASSERT_TRUE(manager.RefreshView("JV").ok());
  EXPECT_EQ(manager.view("JV")->RowCount(), 2u);
  ASSERT_TRUE(manager.CheckAllConsistent().ok())
      << manager.CheckAllConsistent();
}

TEST(DeferredViewTest, RefreshRetriesUntilTheOlderHolderReleases) {
  SystemConfig cfg = BlockedRefresh::Config();
  // Backoff well above the holder's delay, so the default attempt budget
  // outlasts it with a wide margin on a loaded host.
  cfg.maintain_retry_base_us = 2000;
  BlockedRefresh blocked(cfg);
  ParallelSystem& sys = *blocked.fx.sys;
  ViewManager& manager = *blocked.fx.manager;

  Counter* retries = MetricsRegistry::Global().counter("pjvm_maintain_retries");
  const uint64_t retries_before = retries->value();
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sys.Abort(blocked.holder).Check();
  });
  Status st = manager.RefreshView("JV");
  release.join();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GT(retries->value(), retries_before);  // at least one killed attempt
  EXPECT_FALSE(manager.IsStale("JV"));
  EXPECT_FALSE(sys.txns().HasActive());
  ASSERT_TRUE(manager.CheckAllConsistent().ok())
      << manager.CheckAllConsistent();
}

}  // namespace
}  // namespace pjvm
