// Open-loop multi-tenant SLO bench: N tenants, each owning a join view over
// the shared A/B tables, offer Poisson arrivals (point reads + range scans +
// Zipf-skewed update streams) at a fixed per-tenant rate, and the harness
// measures every operation's latency from its SCHEDULED arrival time — so at
// overload the backlog shows up in the tail instead of silently throttling
// the driver (no coordinated omission). Queue wait (dispatch - scheduled)
// and service time (completion - dispatch) are reported separately, and
// per-window p50/p95/p99 distinguish warmup from steady state.
//
// The sweep crosses offered load x tenant count x maintenance method
// (naive / auxiliary relations / global indexes) x mvcc_reads {off, on}.
// Every update maintains EVERY tenant's view inside one distributed
// transaction, so tenant count multiplies the per-update maintenance work —
// the multi-tenant amplification the SLO report is meant to expose. The
// saturating server is each tenant's single update-writer (a tenant's
// update stream must apply in order), so as the offered rate approaches the
// writer's service capacity the update class shows the hockey stick first.
//
// Per cell the report carries offered vs achieved throughput, goodput
// against the per-tenant SLO threshold, per-op-class latency / queue-wait /
// service histograms, and per-window quantiles; a "series" section gathers
// each (method, mvcc, tenants) sweep into offered-vs-p99 curves. Each cell
// ends with the from-scratch consistency oracle and an empty-lock-table
// check. Written to BENCH_slo_openloop.json.
//
// In-bench asserts: at each series' lowest (unloaded) rate, achieved
// throughput must be >= 0.9x offered; in the full sweep at least one series
// must show a hockey stick (update p99 at the top rate >= 2x the bottom
// rate's). CI runs the "ci" sweep — one unloaded AR cell — and additionally
// exports a Chrome trace plus the Prometheus text dump as artifacts.
//
// Usage: bench_slo_openloop [duration_ms] [nodes] [sweep]
//   sweep = "full" (default): methods {NAIVE, AUX, GI} x mvcc {off, on} x
//           tenants {2, 4} x per-tenant rates {250, 1000, 4000}/s
//   sweep = "ci": one cell (AUX, mvcc on, 2 tenants, 100/s) with trace +
//           metrics exports

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "workload/openloop.h"

namespace pjvm::bench {
namespace {

// The simulated WAL device: 1ms per force, amortized across concurrent
// commits by group commit. This is what makes an update's service time
// milliseconds-scale, so the sweep's top rates actually saturate the
// per-tenant writer instead of the bench being a pure CPU microbenchmark.
constexpr uint64_t kForceNs = 1'000'000;
constexpr int kWindowUs = 50;
constexpr int64_t kBJoinKeys = 64;
constexpr int kWarmupRows = 32;
// Per-op SLO, from scheduled arrival: generous against unloaded service
// times (tens of microseconds to a few ms) and blown through at overload.
constexpr uint64_t kSloNs = 20'000'000;

struct SloBenchConfig {
  uint64_t duration_ms = 800;
  int nodes = 4;
  bool ci_only = false;
};

struct SloCell {
  MaintenanceMethod method = MaintenanceMethod::kAuxRelation;
  bool mvcc = true;
  int tenants = 2;
  double rate_per_tenant = 250.0;
};

OpenLoopResult RunCell(const SloBenchConfig& bc, const SloCell& cell) {
  SystemConfig cfg;
  cfg.num_nodes = bc.nodes;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  cfg.maintain_max_attempts = 16;
  cfg.maintain_retry_base_us = 100;
  cfg.wal_force_ns = kForceNs;
  cfg.group_commit_window_us = kWindowUs;
  cfg.mvcc_reads = cell.mvcc;
  ParallelSystem sys(cfg);

  TwoTableConfig tt;
  tt.b_join_keys = kBJoinKeys;
  tt.fanout = 2;
  LoadTwoTable(&sys, tt).Check();
  ViewManager manager(&sys);

  OpenLoopConfig olc;
  olc.duration_ms = bc.duration_ms;
  olc.window_ms = std::max<uint64_t>(1, bc.duration_ms / 4);
  olc.read_workers = 4;
  olc.b_join_keys = kBJoinKeys;
  olc.warmup_rows_per_tenant = kWarmupRows;
  for (int t = 0; t < cell.tenants; ++t) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(t);
    spec.rate_per_sec = cell.rate_per_tenant;
    spec.process = ArrivalProcess::kPoisson;
    spec.zipf_theta = 0.9;
    spec.seed = 100 + t;
    spec.slo_ns = kSloNs;
    olc.tenants.push_back(spec);
  }
  RegisterTenantViews(&manager, &olc.tenants, cell.method).Check();

  OpenLoopDriver driver(&manager, std::move(olc));
  auto result = driver.Run();
  result.status().Check();

  // However the open-loop interleaving went, every tenant's view must equal
  // its from-scratch join and the lock table must have quiesced.
  manager.CheckAllConsistent().Check();
  if (sys.locks().TotalLocks() != 0) {
    Status::Internal("lock table not empty after open-loop cell").Check();
  }
  return std::move(result).value();
}

std::string WindowsJson(const std::vector<WindowQuantiles>& windows) {
  JsonWriter w;
  w.BeginArray();
  for (const WindowQuantiles& win : windows) {
    w.BeginObject()
        .Key("index").Uint(win.index)
        .Key("start_ms").Num(win.start_ms)
        .Key("count").Uint(win.count)
        .Key("p50").Num(win.p50)
        .Key("p95").Num(win.p95)
        .Key("p99").Num(win.p99)
        .Key("mean").Num(win.mean)
        .Key("max").Num(win.max)
        .EndObject();
  }
  w.EndArray();
  return w.str();
}

std::string OpStatsJson(const OpClassStats& s) {
  JsonWriter w;
  w.BeginObject()
      .Key("offered").Uint(s.offered)
      .Key("completed").Uint(s.completed)
      .Key("failed").Uint(s.failed)
      .Key("resubmits").Uint(s.resubmits)
      .Key("slo_violations").Uint(s.slo_violations)
      .Key("latency_ns").Raw(LatencyJson(s.latency))
      .Key("queue_wait_ns").Raw(LatencyJson(s.queue_wait))
      .Key("service_ns").Raw(LatencyJson(s.service))
      .Key("windows").Raw(WindowsJson(s.windows))
      .EndObject();
  return w.str();
}

std::string TenantJson(const TenantResult& tr) {
  JsonWriter w;
  w.BeginObject()
      .Key("tenant").Str(tr.tenant)
      .Key("offered_per_sec").Num(tr.offered_per_sec)
      .Key("achieved_per_sec").Num(tr.achieved_per_sec)
      .Key("goodput_per_sec").Num(tr.goodput_per_sec)
      .Key("offered").Uint(tr.offered)
      .Key("completed").Uint(tr.completed)
      .Key("slo_violations").Uint(tr.slo_violations)
      .Key("windows").Raw(WindowsJson(tr.windows))
      .Key("ops").BeginObject();
  for (int o = 0; o < kNumOpClasses; ++o) {
    w.Key(OpClassToString(static_cast<OpClass>(o)))
        .Raw(OpStatsJson(tr.ops[o]));
  }
  w.EndObject().EndObject();
  return w.str();
}

/// Series-level scalars of one cell, for the offered-vs-tail curves.
struct CellSummary {
  SloCell cell;
  double offered_per_sec = 0.0;
  double achieved_per_sec = 0.0;
  double goodput_per_sec = 0.0;
  double update_p99_ns = 0.0;
  double overall_p99_ns = 0.0;
  double update_queue_p99_ns = 0.0;
  uint64_t slo_violations = 0;
};

CellSummary Summarize(const SloCell& cell, const OpenLoopResult& r) {
  CellSummary s;
  s.cell = cell;
  HistogramData all, update, update_queue;
  for (const TenantResult& tr : r.tenants) {
    s.offered_per_sec += tr.offered_per_sec;
    s.achieved_per_sec += tr.achieved_per_sec;
    s.goodput_per_sec += tr.goodput_per_sec;
    s.slo_violations += tr.slo_violations;
    for (int o = 0; o < kNumOpClasses; ++o) {
      all.Merge(tr.ops[o].latency);
    }
    update.Merge(tr.ops[static_cast<int>(OpClass::kUpdate)].latency);
    update_queue.Merge(tr.ops[static_cast<int>(OpClass::kUpdate)].queue_wait);
  }
  s.update_p99_ns = update.P99();
  s.overall_p99_ns = all.P99();
  s.update_queue_p99_ns = update_queue.P99();
  return s;
}

std::string CellJson(const CellSummary& s, const OpenLoopResult& r) {
  JsonWriter w;
  w.BeginObject()
      .Key("method").Str(MaintenanceMethodToString(s.cell.method))
      .Key("mvcc").Str(s.cell.mvcc ? "on" : "off")
      .Key("tenants").Int(s.cell.tenants)
      .Key("rate_per_tenant").Num(s.cell.rate_per_tenant)
      .Key("horizon_ms").Num(r.horizon_ms)
      .Key("wall_ms").Num(r.wall_ms)
      .Key("total_offered").Uint(r.total_offered)
      .Key("total_completed").Uint(r.total_completed)
      .Key("offered_per_sec").Num(s.offered_per_sec)
      .Key("achieved_per_sec").Num(s.achieved_per_sec)
      .Key("goodput_per_sec").Num(s.goodput_per_sec)
      .Key("slo_violations").Uint(s.slo_violations)
      .Key("overall_p99_ns").Num(s.overall_p99_ns)
      .Key("update_p99_ns").Num(s.update_p99_ns)
      .Key("update_queue_p99_ns").Num(s.update_queue_p99_ns)
      .Key("tenant_results").BeginArray();
  for (const TenantResult& tr : r.tenants) w.Raw(TenantJson(tr));
  w.EndArray().EndObject();
  return w.str();
}

void Run(const SloBenchConfig& bc) {
  const std::vector<double> rates =
      bc.ci_only ? std::vector<double>{100.0}
                 : std::vector<double>{250.0, 1000.0, 4000.0};
  const std::vector<int> tenant_counts =
      bc.ci_only ? std::vector<int>{2} : std::vector<int>{2, 4};
  const std::vector<MaintenanceMethod> methods =
      bc.ci_only ? std::vector<MaintenanceMethod>{
                       MaintenanceMethod::kAuxRelation}
                 : std::vector<MaintenanceMethod>{
                       MaintenanceMethod::kNaive,
                       MaintenanceMethod::kAuxRelation,
                       MaintenanceMethod::kGlobalIndex};
  const std::vector<bool> mvcc_modes =
      bc.ci_only ? std::vector<bool>{true} : std::vector<bool>{false, true};

  PrintHeader("open-loop SLO sweep: " + std::to_string(bc.duration_ms) +
              "ms horizon, " + std::to_string(bc.nodes) + " nodes" +
              (bc.ci_only ? " (ci)" : ""));
  if (bc.ci_only) {
    // The CI artifact pass wants a trace of the smoke cell.
    Tracer::Global().Enable();
  }

  BenchReport report("slo_openloop");
  {
    JsonWriter w;
    w.BeginObject()
        .Key("duration_ms").Uint(bc.duration_ms)
        .Key("nodes").Int(bc.nodes)
        .Key("b_join_keys").Int(kBJoinKeys)
        .Key("warmup_rows_per_tenant").Int(kWarmupRows)
        .Key("wal_force_ns").Uint(kForceNs)
        .Key("slo_ns").Uint(kSloNs)
        .Key("sweep").Str(bc.ci_only ? "ci" : "full")
        .EndObject();
    report.Add("config", w.str());
  }

  std::vector<CellSummary> summaries;
  JsonWriter cells;
  cells.BeginArray();
  for (MaintenanceMethod method : methods) {
    for (bool mvcc : mvcc_modes) {
      for (int tenants : tenant_counts) {
        for (double rate : rates) {
          SloCell cell{method, mvcc, tenants, rate};
          OpenLoopResult r = RunCell(bc, cell);
          CellSummary s = Summarize(cell, r);
          std::cout << MaintenanceMethodToString(method)
                    << " mvcc=" << (mvcc ? "on" : "off")
                    << " tenants=" << tenants << " rate=" << rate
                    << ": offered=" << s.offered_per_sec
                    << "/s achieved=" << s.achieved_per_sec
                    << "/s goodput=" << s.goodput_per_sec
                    << "/s p99=" << s.overall_p99_ns / 1e6
                    << "ms update_p99=" << s.update_p99_ns / 1e6
                    << "ms violations=" << s.slo_violations << "\n";
          cells.Raw(CellJson(s, r));
          summaries.push_back(s);
        }
      }
    }
  }
  cells.EndArray();
  report.Add("cells", cells.str());

  // Offered-vs-tail curves, one per (method, mvcc, tenants) series.
  JsonWriter series;
  series.BeginArray();
  for (MaintenanceMethod method : methods) {
    for (bool mvcc : mvcc_modes) {
      for (int tenants : tenant_counts) {
        series.BeginObject()
            .Key("method").Str(MaintenanceMethodToString(method))
            .Key("mvcc").Str(mvcc ? "on" : "off")
            .Key("tenants").Int(tenants)
            .Key("points").BeginArray();
        for (const CellSummary& s : summaries) {
          if (s.cell.method != method || s.cell.mvcc != mvcc ||
              s.cell.tenants != tenants) {
            continue;
          }
          series.BeginObject()
              .Key("rate_per_tenant").Num(s.cell.rate_per_tenant)
              .Key("offered_per_sec").Num(s.offered_per_sec)
              .Key("achieved_per_sec").Num(s.achieved_per_sec)
              .Key("goodput_per_sec").Num(s.goodput_per_sec)
              .Key("update_p99_ms").Num(s.update_p99_ns / 1e6)
              .Key("overall_p99_ms").Num(s.overall_p99_ns / 1e6)
              .EndObject();
        }
        series.EndArray().EndObject();
      }
    }
  }
  series.EndArray();
  report.Add("series", series.str());
  report.Write();

  if (bc.ci_only) {
    const std::string dir = BenchReport::OutputDir();
    Tracer::Global()
        .ExportChromeTrace(dir + "/slo_openloop_trace.json")
        .Check();
    std::ofstream prom(dir + "/slo_openloop_metrics.prom");
    prom << MetricsRegistry::Global().PrometheusText();
    std::cout << "wrote " << dir << "/slo_openloop_trace.json and "
              << dir << "/slo_openloop_metrics.prom\n";
  }

  // Unloaded-point sanity: at each series' lowest rate the system must keep
  // up — achieved throughput within 10% of offered.
  for (const CellSummary& s : summaries) {
    if (s.cell.rate_per_tenant != rates.front()) continue;
    if (s.achieved_per_sec < 0.9 * s.offered_per_sec) {
      Status::Internal(
          "unloaded cell fell behind: " +
          std::string(MaintenanceMethodToString(s.cell.method)) +
          " mvcc=" + (s.cell.mvcc ? "on" : "off") + " tenants=" +
          std::to_string(s.cell.tenants) + " achieved " +
          std::to_string(s.achieved_per_sec) + "/s of offered " +
          std::to_string(s.offered_per_sec) + "/s")
          .Check();
    }
  }
  if (!bc.ci_only) {
    // The sweep must reach saturation somewhere: at least one series' update
    // p99 at the top rate >= 2x its bottom-rate p99.
    bool hockey = false;
    for (MaintenanceMethod method : methods) {
      for (bool mvcc : mvcc_modes) {
        for (int tenants : tenant_counts) {
          double low = 0.0, high = 0.0;
          for (const CellSummary& s : summaries) {
            if (s.cell.method != method || s.cell.mvcc != mvcc ||
                s.cell.tenants != tenants) {
              continue;
            }
            if (s.cell.rate_per_tenant == rates.front()) low = s.update_p99_ns;
            if (s.cell.rate_per_tenant == rates.back()) high = s.update_p99_ns;
          }
          if (low > 0.0 && high >= 2.0 * low) hockey = true;
        }
      }
    }
    if (!hockey) {
      Status::Internal("no series shows tail growth near saturation — "
                       "raise the top sweep rate")
          .Check();
    }
  }
  std::cout << "slo_openloop asserts passed\n";
}

}  // namespace
}  // namespace pjvm::bench

int main(int argc, char** argv) {
  pjvm::bench::SloBenchConfig bc;
  if (argc > 1) bc.duration_ms = std::stoull(argv[1]);
  if (argc > 2) bc.nodes = std::stoi(argv[2]);
  if (argc > 3) bc.ci_only = std::string(argv[3]) == "ci";
  pjvm::bench::Run(bc);
  return 0;
}
