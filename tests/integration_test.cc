#include <gtest/gtest.h>

#include "tests/view_test_util.h"
#include "view/view_manager.h"
#include "workload/tpcr.h"
#include "workload/update_stream.h"
#include "workload/zipf.h"

namespace pjvm {
namespace {

// The capstone soak test: a TPC-R warehouse carrying FIVE views at once —
// JV1 under every maintenance method, the 3-way JV2, and an aggregate view —
// fed by skewed update streams against all three base tables, interleaved
// with crashes, recoveries, checkpoints, and a view drop. After every phase,
// every view must equal its from-scratch recomputation and every auxiliary
// structure must be exact.
class WarehouseSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig cfg;
    cfg.num_nodes = 4;
    cfg.rows_per_page = 8;
    sys_ = std::make_unique<ParallelSystem>(cfg);
    tpcr_.customers = 300;
    tpcr_.extra_customer_keys = 128;
    LoadTpcr(sys_.get(), GenerateTpcr(tpcr_)).Check();
    manager_ = std::make_unique<ViewManager>(sys_.get());

    JoinViewDef jv1_naive = MakeJv1();
    jv1_naive.name = "JV1_naive";
    JoinViewDef jv1_gi = MakeJv1();
    jv1_gi.name = "JV1_gi";
    manager_->RegisterView(MakeJv1(), MaintenanceMethod::kAuxRelation).Check();
    manager_->RegisterView(jv1_naive, MaintenanceMethod::kNaive).Check();
    manager_->RegisterView(jv1_gi, MaintenanceMethod::kGlobalIndex).Check();
    manager_->RegisterView(MakeJv2(), MaintenanceMethod::kAuxRelation).Check();

    JoinViewDef agg;
    agg.name = "rev_by_cust";
    agg.bases = {{"customer", "c"}, {"orders", "o"}};
    agg.edges = {{{"c", "custkey"}, {"o", "custkey"}}};
    agg.group_by = {{"c", "custkey"}};
    agg.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {"o", "totalprice"}}};
    manager_->RegisterView(agg, MaintenanceMethod::kGlobalIndex).Check();
  }

  void VerifyAll(const char* phase) {
    Status st = manager_->CheckAllConsistent();
    ASSERT_TRUE(st.ok()) << phase << ": " << st;
    // The three JV1 replicas agree exactly.
    auto bag = RowBag(manager_->view("JV1")->Contents());
    EXPECT_EQ(bag, RowBag(manager_->view("JV1_naive")->Contents())) << phase;
    EXPECT_EQ(bag, RowBag(manager_->view("JV1_gi")->Contents())) << phase;
  }

  std::unique_ptr<ParallelSystem> sys_;
  std::unique_ptr<ViewManager> manager_;
  TpcrConfig tpcr_;
};

TEST_F(WarehouseSoakTest, SurvivesEverythingAtOnce) {
  VerifyAll("after setup");

  // Phase 1: skewed customer churn (inserts, deletes, updates).
  TpcrConfig capture = tpcr_;
  UpdateStreamGenerator customers(
      "customer", UpdateMix{0.5, 0.25, 0.25}, 101,
      [capture](int64_t i) { return MakeDeltaCustomer(capture, i); },
      [](const Row& row, Rng& rng) {
        Row out = row;
        out[1] = Value{rng.UniformDouble() * 5000.0};
        return out;
      });
  for (int b = 0; b < 6; ++b) {
    ASSERT_TRUE(manager_->ApplyDelta(customers.NextBatch(6)).ok()) << b;
  }
  VerifyAll("after customer churn");

  // Phase 2: Zipf-skewed new orders for existing customers (with their
  // lineitems arriving as separate transactions on another table).
  ZipfGenerator zipf(tpcr_.customers, 1.0, 55);
  int64_t next_orderkey = 1000000;
  for (int b = 0; b < 4; ++b) {
    std::vector<Row> orders_batch;
    std::vector<Row> lineitem_batch;
    for (int i = 0; i < 5; ++i) {
      int64_t orderkey = next_orderkey++;
      orders_batch.push_back({Value{orderkey}, Value{zipf.Next()},
                              Value{double(orderkey % 997)}});
      for (int l = 0; l < 2; ++l) {
        lineitem_batch.push_back({Value{orderkey}, Value{int64_t{l}},
                                  Value{int64_t{b}}, Value{1.0}, Value{0.05}});
      }
    }
    ASSERT_TRUE(
        manager_->ApplyDelta(DeltaBatch::Inserts("orders", orders_batch)).ok());
    ASSERT_TRUE(
        manager_->ApplyDelta(DeltaBatch::Inserts("lineitem", lineitem_batch))
            .ok());
  }
  VerifyAll("after order/lineitem streams");

  // Phase 3: crash, recover, rebuild GIs, keep going.
  sys_->Crash();
  ASSERT_TRUE(sys_->Recover().ok());
  ASSERT_TRUE(manager_->RecoverViews().ok());
  VerifyAll("after crash+recover");
  ASSERT_TRUE(manager_->ApplyDelta(customers.NextBatch(5)).ok());
  VerifyAll("after post-recovery churn");

  // Phase 4: checkpoint, more churn, crash again — recovery replays only
  // the post-checkpoint suffix.
  ASSERT_TRUE(sys_->Checkpoint().ok());
  ASSERT_TRUE(manager_->ApplyDelta(customers.NextBatch(5)).ok());
  sys_->Crash();
  ASSERT_TRUE(sys_->Recover().ok());
  ASSERT_TRUE(manager_->RecoverViews().ok());
  VerifyAll("after checkpoint+crash");

  // Phase 5: drop one JV1 replica mid-life; the others keep working.
  ASSERT_TRUE(manager_->UnregisterView("JV1_naive").ok());
  ASSERT_TRUE(manager_->ApplyDelta(customers.NextBatch(5)).ok());
  Status st = manager_->CheckAllConsistent();
  ASSERT_TRUE(st.ok()) << "after view drop: " << st;
  EXPECT_EQ(RowBag(manager_->view("JV1")->Contents()),
            RowBag(manager_->view("JV1_gi")->Contents()));

  // Phase 6: a failed maintenance transaction leaves no trace.
  auto before = RowBag(manager_->view("JV2")->Contents());
  sys_->txns().InjectFailure(FailurePoint::kAfterPrepare);
  EXPECT_FALSE(manager_->ApplyDelta(customers.NextBatch(4)).ok());
  Status rec = sys_->Recover();
  ASSERT_TRUE(rec.ok()) << rec;
  ASSERT_TRUE(manager_->RecoverViews().ok());
  EXPECT_EQ(RowBag(manager_->view("JV2")->Contents()), before);
  st = manager_->CheckAllConsistent();
  ASSERT_TRUE(st.ok()) << "after injected failure: " << st;
}

TEST_F(WarehouseSoakTest, LongRandomizedChurnStaysConsistent) {
  Rng rng(2026);
  UpdateStreamGenerator customers(
      "customer", UpdateMix{0.6, 0.2, 0.2}, 7,
      [cfg = tpcr_](int64_t i) { return MakeDeltaCustomer(cfg, i); },
      [](const Row& row, Rng& r) {
        Row out = row;
        out[1] = Value{r.UniformDouble() * 1000.0};
        return out;
      });
  for (int b = 0; b < 25; ++b) {
    ASSERT_TRUE(manager_->ApplyDelta(customers.NextBatch(4)).ok()) << b;
    if (b % 10 == 9) VerifyAll("periodic");
  }
  VerifyAll("final");
}

// Crash matrix: every maintenance method x every 2PC failure point. The
// injected crash hits the Nth maintenance transaction; whatever the logs
// decided must hold after recovery, and the views must match from-scratch.
class CrashMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<MaintenanceMethod, FailurePoint>> {};

TEST_P(CrashMatrixTest, AtomicityHoldsAtEveryFailurePoint) {
  auto [method, failure] = GetParam();
  TwoTableFixture fx(4, 10, 2);
  ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), method).ok());
  // Two committed batches, then a batch whose commit crashes.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(i)).ok());
  }
  size_t base_before = fx.sys->RowCount("A");
  auto view_before = RowBag(fx.manager->view("JV")->Contents());
  fx.sys->txns().InjectFailure(failure);
  EXPECT_FALSE(fx.manager->InsertRow("A", fx.NextARow(5)).ok());
  ASSERT_TRUE(fx.sys->Recover().ok());
  ASSERT_TRUE(fx.manager->RecoverViews().ok());
  if (failure == FailurePoint::kAfterDecision) {
    // The decision was durable: the transaction committed.
    EXPECT_EQ(fx.sys->RowCount("A"), base_before + 1);
  } else {
    EXPECT_EQ(fx.sys->RowCount("A"), base_before);
    EXPECT_EQ(RowBag(fx.manager->view("JV")->Contents()), view_before);
  }
  Status st = fx.manager->CheckAllConsistent();
  ASSERT_TRUE(st.ok()) << st;
  // The system keeps working after recovery.
  ASSERT_TRUE(fx.manager->InsertRow("A", fx.NextARow(7)).ok());
  ASSERT_TRUE(fx.manager->CheckAllConsistent().ok());
}

std::string CrashMatrixName(
    const ::testing::TestParamInfo<CrashMatrixTest::ParamType>& info) {
  std::string name = MaintenanceMethodToString(std::get<0>(info.param));
  switch (std::get<1>(info.param)) {
    case FailurePoint::kBeforePrepare:
      name += "_BeforePrepare";
      break;
    case FailurePoint::kAfterPrepare:
      name += "_AfterPrepare";
      break;
    case FailurePoint::kAfterDecision:
      name += "_AfterDecision";
      break;
    case FailurePoint::kNone:
      name += "_None";
      break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CrashMatrixTest,
    ::testing::Combine(::testing::Values(MaintenanceMethod::kNaive,
                                         MaintenanceMethod::kAuxRelation,
                                         MaintenanceMethod::kGlobalIndex),
                       ::testing::Values(FailurePoint::kBeforePrepare,
                                         FailurePoint::kAfterPrepare,
                                         FailurePoint::kAfterDecision)),
    CrashMatrixName);

}  // namespace
}  // namespace pjvm
