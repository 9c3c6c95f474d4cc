#include "workload/openloop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "engine/system.h"
#include "view/view_manager.h"
#include "workload/twotable.h"

namespace pjvm {
namespace {

// ------------------------------------------------------ Arrival schedules

TenantSpec PoissonSpec(uint64_t seed = 3) {
  TenantSpec spec;
  spec.name = "t0";
  spec.rate_per_sec = 10000.0;
  spec.process = ArrivalProcess::kPoisson;
  spec.seed = seed;
  return spec;
}

TEST(ArrivalScheduleTest, DeterministicInSeed) {
  auto a = BuildArrivalSchedule(PoissonSpec(3), 100'000'000);
  auto b = BuildArrivalSchedule(PoissonSpec(3), 100'000'000);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ns, b[i].at_ns);
    EXPECT_EQ(a[i].op, b[i].op);
  }
  auto c = BuildArrivalSchedule(PoissonSpec(4), 100'000'000);
  bool identical = a.size() == c.size();
  for (size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].at_ns == c[i].at_ns;
  }
  EXPECT_FALSE(identical) << "different seeds must give different schedules";
}

TEST(ArrivalScheduleTest, ArrivalsAreOrderedAndInsideTheHorizon) {
  constexpr uint64_t kHorizon = 200'000'000;
  auto sched = BuildArrivalSchedule(PoissonSpec(), kHorizon);
  ASSERT_FALSE(sched.empty());
  for (size_t i = 0; i < sched.size(); ++i) {
    EXPECT_LT(sched[i].at_ns, kHorizon);
    if (i > 0) {
      EXPECT_GE(sched[i].at_ns, sched[i - 1].at_ns);
    }
  }
}

TEST(ArrivalScheduleTest, PoissonMeanGapMatchesTheRate) {
  // 10k/s over 1 simulated second: the mean inter-arrival gap must be
  // within a few percent of 1/rate = 100us (law of large numbers; seed is
  // fixed, so this is deterministic, not flaky).
  TenantSpec spec = PoissonSpec();
  constexpr uint64_t kHorizon = 1'000'000'000;
  auto sched = BuildArrivalSchedule(spec, kHorizon);
  ASSERT_GT(sched.size(), 5000u);
  double mean_gap_ns =
      static_cast<double>(sched.back().at_ns) / (sched.size() - 1);
  double expected_ns = 1e9 / spec.rate_per_sec;
  EXPECT_NEAR(mean_gap_ns, expected_ns, expected_ns * 0.05);
  // Exponential gaps: the variance is ~mean^2, far from the zero variance
  // of a metronome. Check the coefficient of variation is near 1.
  double sq = 0.0;
  for (size_t i = 1; i < sched.size(); ++i) {
    double g = static_cast<double>(sched[i].at_ns - sched[i - 1].at_ns);
    sq += (g - mean_gap_ns) * (g - mean_gap_ns);
  }
  double cv = std::sqrt(sq / (sched.size() - 1)) / mean_gap_ns;
  EXPECT_GT(cv, 0.8);
  EXPECT_LT(cv, 1.2);
}

TEST(ArrivalScheduleTest, FixedRateIsAMetronome) {
  TenantSpec spec = PoissonSpec();
  spec.process = ArrivalProcess::kFixedRate;
  spec.rate_per_sec = 1000.0;  // gap = 1ms exactly
  auto sched = BuildArrivalSchedule(spec, 10'000'000);
  // The first arrival is one gap in (t=0 would be "before the run"), and
  // the horizon bound is exclusive: gaps at 1ms..9ms.
  ASSERT_EQ(sched.size(), 9u);
  EXPECT_EQ(sched[0].at_ns, 1'000'000u);
  for (size_t i = 1; i < sched.size(); ++i) {
    EXPECT_EQ(sched[i].at_ns - sched[i - 1].at_ns, 1'000'000u);
  }
}

TEST(ArrivalScheduleTest, OpMixFollowsTheConfiguredFractions) {
  TenantSpec spec = PoissonSpec();
  spec.point_read_frac = 0.7;
  spec.range_scan_frac = 0.2;
  spec.update_frac = 0.1;
  auto sched = BuildArrivalSchedule(spec, 1'000'000'000);
  ASSERT_GT(sched.size(), 5000u);
  double counts[kNumOpClasses] = {0, 0, 0};
  for (const Arrival& a : sched) counts[static_cast<int>(a.op)]++;
  double n = static_cast<double>(sched.size());
  EXPECT_NEAR(counts[0] / n, 0.7, 0.03);
  EXPECT_NEAR(counts[1] / n, 0.2, 0.03);
  EXPECT_NEAR(counts[2] / n, 0.1, 0.03);
}

// --------------------------------------------------------- End-to-end runs

struct OpenLoopFixture {
  std::unique_ptr<ParallelSystem> sys;
  std::unique_ptr<ViewManager> manager;

  explicit OpenLoopFixture(MaintenanceMethod method, int tenants,
                           double rate_per_sec) {
    SystemConfig cfg;
    cfg.num_nodes = 2;
    cfg.enable_locking = true;
    sys = std::make_unique<ParallelSystem>(cfg);
    TwoTableConfig tt;
    tt.b_join_keys = 16;
    tt.fanout = 2;
    LoadTwoTable(sys.get(), tt).Check();
    manager = std::make_unique<ViewManager>(sys.get());
    config.b_join_keys = tt.b_join_keys;
    for (int t = 0; t < tenants; ++t) {
      TenantSpec spec;
      spec.name = "t" + std::to_string(t);
      spec.rate_per_sec = rate_per_sec;
      spec.seed = 40 + t;
      config.tenants.push_back(spec);
    }
    RegisterTenantViews(manager.get(), &config.tenants, method).Check();
  }

  OpenLoopConfig config;
};

TEST(OpenLoopDriverTest, UnloadedRunCompletesEveryArrival) {
  OpenLoopFixture fx(MaintenanceMethod::kAuxRelation, /*tenants=*/2,
                     /*rate_per_sec=*/200.0);
  fx.config.duration_ms = 400;
  fx.config.window_ms = 100;
  fx.config.read_workers = 2;
  fx.config.warmup_rows_per_tenant = 8;
  fx.config.publish_metrics = false;
  OpenLoopDriver driver(fx.manager.get(), fx.config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->tenants.size(), 2u);
  EXPECT_GT(result->total_offered, 0u);
  // Unloaded: nothing fails, everything offered completes.
  EXPECT_EQ(result->total_completed, result->total_offered);
  for (const TenantResult& tr : result->tenants) {
    EXPECT_EQ(tr.completed, tr.offered);
    uint64_t per_class = 0;
    for (const OpClassStats& ops : tr.ops) {
      EXPECT_EQ(ops.failed, 0u);
      EXPECT_EQ(ops.completed, ops.offered);
      EXPECT_EQ(ops.latency.count, ops.completed);
      per_class += ops.completed;
      // latency = queue_wait + service, recorded per completion.
      EXPECT_EQ(ops.queue_wait.count, ops.completed);
      EXPECT_EQ(ops.service.count, ops.completed);
    }
    EXPECT_EQ(per_class, tr.completed);
    // Windowed quantiles exist and cover the run.
    EXPECT_FALSE(tr.windows.empty());
    uint64_t windowed = 0;
    for (const WindowQuantiles& w : tr.windows) windowed += w.count;
    EXPECT_EQ(windowed, tr.offered);
  }
  // The maintained views stayed consistent with their definitions under
  // the concurrent multi-tenant mix.
  EXPECT_TRUE(fx.manager->CheckAllConsistent().ok());
  EXPECT_TRUE(fx.sys->CheckInvariants().ok());
}

TEST(OpenLoopDriverTest, OverloadedRunRecordsQueueWaitNotJustService) {
  // Updates are serialized per tenant through one writer thread; offering
  // update-heavy load far above its drain rate must surface as queue wait
  // (latency from the SCHEDULED arrival), with wall time extending past the
  // horizon to drain the backlog. This is exactly what a closed-loop driver
  // cannot measure.
  OpenLoopFixture fx(MaintenanceMethod::kNaive, /*tenants=*/1,
                     /*rate_per_sec=*/4000.0);
  fx.config.duration_ms = 250;
  fx.config.window_ms = 125;
  fx.config.read_workers = 2;
  fx.config.warmup_rows_per_tenant = 8;
  fx.config.publish_metrics = false;
  TenantSpec& spec = fx.config.tenants[0];
  spec.point_read_frac = 0.0;
  spec.range_scan_frac = 0.0;
  spec.update_frac = 1.0;
  OpenLoopDriver driver(fx.manager.get(), fx.config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->tenants.size(), 1u);
  const TenantResult& tr = result->tenants[0];
  EXPECT_EQ(tr.completed, tr.offered) << "backlog must drain, not drop";
  const OpClassStats& upd = tr.ops[static_cast<int>(OpClass::kUpdate)];
  ASSERT_GT(upd.completed, 0u);
  // At 4000/s offered the backlog dominates: p99 queue wait must dwarf p99
  // service time, and end-to-end latency must reflect the wait.
  EXPECT_GT(upd.queue_wait.P99(), upd.service.P99());
  EXPECT_GE(upd.latency.max, upd.queue_wait.max);
  EXPECT_GE(result->wall_ms, result->horizon_ms);
  EXPECT_TRUE(fx.manager->CheckAllConsistent().ok());
}

TEST(OpenLoopDriverTest, RunIsSingleUse) {
  OpenLoopFixture fx(MaintenanceMethod::kAuxRelation, 1, 50.0);
  fx.config.duration_ms = 40;
  fx.config.publish_metrics = false;
  OpenLoopDriver driver(fx.manager.get(), fx.config);
  ASSERT_TRUE(driver.Run().ok());
  EXPECT_FALSE(driver.Run().ok());
}

TEST(OpenLoopDriverTest, RejectsEmptyTenantList) {
  OpenLoopFixture fx(MaintenanceMethod::kAuxRelation, 1, 50.0);
  fx.config.tenants.clear();
  OpenLoopDriver driver(fx.manager.get(), fx.config);
  EXPECT_FALSE(driver.Run().ok());
}

}  // namespace
}  // namespace pjvm
