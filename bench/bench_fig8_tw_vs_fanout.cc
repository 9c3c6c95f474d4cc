// Reproduces Figure 8: TW of a single-tuple insert vs the number of join
// tuples generated (N), at L = 32. Shows the global index method
// interpolating between the auxiliary relation and naive methods.

#include <cstdio>

#include "bench/bench_util.h"
#include "model/figures.h"

namespace pjvm {
namespace {

double MeasuredTw(MaintenanceMethod method, int64_t fanout) {
  SystemConfig sys_cfg;
  sys_cfg.num_nodes = 32;
  sys_cfg.rows_per_page = 4;
  ParallelSystem sys(sys_cfg);
  TwoTableConfig cfg;
  cfg.b_join_keys = 50;
  cfg.fanout = fanout;
  cfg.b_clustered_on_d = false;
  LoadTwoTable(&sys, cfg).Check();
  ViewManager manager(&sys);
  manager.RegisterView(MakeModelView(), method).Check();
  sys.cost().Reset();
  auto report = manager.InsertRow("A", MakeDeltaA(cfg, 0));
  report.status().Check();
  double insert_w = sys.cost().weights().insert;
  return sys.cost().TotalWorkload() - insert_w -
         insert_w * static_cast<double>(report->view_rows_inserted);
}

}  // namespace
}  // namespace pjvm

int main() {
  using namespace pjvm;
  model::Figure fig = model::MakeFigure8();
  model::PrintFigure(fig, std::cout);

  bench::PrintHeader("Figure 8 measured overlay (engine, L=32)");
  std::printf("%8s %14s %14s %14s\n", "fanout", "aux_measured",
              "naive_nc_meas", "gi_nc_meas");
  model::Figure measured;
  measured.title = "Figure 8 measured overlay (engine, L=32)";
  measured.xlabel = fig.xlabel;
  measured.ylabel = fig.ylabel;
  measured.series = {{"aux_measured", {}, {}},
                     {"naive_nc_measured", {}, {}},
                     {"gi_nc_measured", {}, {}}};
  for (int64_t n : {1, 5, 10, 20, 40}) {
    double aux = MeasuredTw(MaintenanceMethod::kAuxRelation, n);
    double naive = MeasuredTw(MaintenanceMethod::kNaive, n);
    double gi = MeasuredTw(MaintenanceMethod::kGlobalIndex, n);
    std::printf("%8lld %14.1f %14.1f %14.1f\n", static_cast<long long>(n), aux,
                naive, gi);
    double ys[] = {aux, naive, gi};
    for (int s = 0; s < 3; ++s) {
      measured.series[s].xs.push_back(static_cast<double>(n));
      measured.series[s].ys.push_back(ys[s]);
    }
  }
  bench::BenchReport report("fig8_tw_vs_fanout");
  report.AddFigure("model", fig);
  report.AddFigure("measured", measured);
  report.Write();
  return 0;
}
