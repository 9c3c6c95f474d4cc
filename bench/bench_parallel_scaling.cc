// Wall-clock scaling of the per-node executor.
//
// A simulated I/O stall (CostTracker::SetIoStallNanos, which
// SystemConfig::io_stall_ns also sets) turns every charged I/O unit into
// device time, so a serial execution's wall clock would be the summed stall
// (total_workload_io x io_stall_ns: TW, the sum of all nodes' work) while the
// executor's wall clock tracks response time (the max over nodes, the paper's
// "all nodes proceed in parallel"). The measured workload is the naive
// method's all-node broadcast probe phase plus the batched base insert — the
// two fan-out paths with per-node balanced work.
//
// Each node count runs kIterations times into a log-bucketed latency
// histogram; BENCH_parallel_scaling.json reports p50/p95/p99 per node count
// (ns), the summed-stall reference, the p50 speedup against it, and whether
// every iteration's cost counters matched the first's.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics_registry.h"
#include "workload/twotable.h"

namespace pjvm {
namespace {

// 500us per weighted I/O unit, charged during the measured delta only (the
// set-up would sleep for nothing): long enough that the timer overshoot of
// each simulated sleep (tens of us on Linux) stays a small share of it, so
// the wall clock is comparable with the summed-stall reference, which omits
// it.
constexpr uint64_t kStallNs = 500 * 1000;
constexpr int kDeltaRows = 240;
constexpr int kIterations = 5;

/// One metered run; returns wall ns, and the summed stall and a counter
/// fingerprint via the out-parameters.
uint64_t RunOnce(int nodes, uint64_t* stall_sum_ns, std::string* fingerprint) {
  SystemConfig cfg;
  cfg.num_nodes = nodes;
  cfg.rows_per_page = 4;
  ParallelSystem sys(cfg);
  TwoTableConfig tt;
  tt.b_join_keys = 150;
  tt.fanout = 8;
  tt.b_clustered_on_d = false;
  LoadTwoTable(&sys, tt).Check();
  ViewManager manager(&sys);
  manager.RegisterView(MakeModelView(), MaintenanceMethod::kNaive).Check();

  // Delta keys beyond B's key range: every node still pays the full broadcast
  // probe (one index SEARCH per delta tuple per node), but no join results
  // materialize, so the serial view-apply tail stays negligible and the
  // measured time is the fan-out phases themselves.
  std::vector<Row> rows;
  rows.reserve(kDeltaRows);
  for (int64_t i = 0; i < kDeltaRows; ++i) {
    rows.push_back({Value{1000000 + i}, Value{tt.b_join_keys + i}, Value{i}});
  }
  sys.cost().SetIoStallNanos(kStallNs);
  bench::RunResult r =
      bench::MeterDelta(&manager, DeltaBatch::Inserts("A", rows));

  std::ostringstream os;
  for (int i = 0; i < nodes; ++i) {
    NodeCounters c = sys.cost().node(i);
    os << i << ":" << c.searches << "," << c.fetches << "," << c.inserts << ","
       << c.sends << ";";
  }
  os << "TW=" << r.total_workload_io << " RT=" << r.response_time_io
     << " sends=" << r.sends << " touched=" << r.nodes_touched;
  *fingerprint = os.str();
  *stall_sum_ns = static_cast<uint64_t>(r.total_workload_io * kStallNs);
  return static_cast<uint64_t>(r.wall_ms * 1e6);
}

struct Sample {
  int nodes = 0;
  uint64_t stall_sum_ns = 0;  // the serial reference: TW x io_stall_ns
  HistogramData wall;
  bool counters_stable = false;
  double Speedup() const {
    return wall.P50() > 0.0 ? stall_sum_ns / wall.P50() : 0.0;
  }
};

}  // namespace
}  // namespace pjvm

int main() {
  using namespace pjvm;
  bench::PrintHeader("Parallel scaling: wall clock vs summed simulated stall");
  std::printf("%8s %14s %12s %12s %10s %8s\n", "nodes", "stall_sum_ms",
              "p50_ms", "p95_ms", "speedup", "stable");
  std::vector<Sample> samples;
  for (int l : {1, 2, 4, 8}) {
    Sample s;
    s.nodes = l;
    s.counters_stable = true;
    std::string first_fp;
    for (int it = 0; it < kIterations; ++it) {
      std::string fp;
      s.wall.Add(RunOnce(l, &s.stall_sum_ns, &fp));
      if (it == 0) first_fp = fp;
      s.counters_stable &= fp == first_fp;
    }
    std::printf("%8d %14.1f %12.1f %12.1f %9.2fx %8s\n", l,
                s.stall_sum_ns / 1e6, s.wall.P50() / 1e6, s.wall.P95() / 1e6,
                s.Speedup(), s.counters_stable ? "yes" : "NO");
    samples.push_back(s);
  }

  bench::BenchReport report("parallel_scaling");
  {
    bench::JsonWriter config;
    config.BeginObject()
        .Key("io_stall_ns").Uint(kStallNs)
        .Key("delta_rows").Int(kDeltaRows)
        .Key("iterations").Int(kIterations)
        .Key("latency_unit").Str("ns")
        .EndObject();
    report.Add("config", config.str());
  }
  bench::JsonWriter points;
  points.BeginArray();
  for (const Sample& s : samples) {
    points.BeginObject()
        .Key("nodes").Int(s.nodes)
        .Key("stall_sum_ns").Uint(s.stall_sum_ns)
        .Key("wall").Raw(bench::LatencyJson(s.wall))
        .Key("speedup_p50").Num(s.Speedup())
        .Key("counters_stable").Bool(s.counters_stable)
        .EndObject();
  }
  points.EndArray();
  report.Add("points", points.str());
  report.Write();
  return 0;
}
