// Reproduces Figure 7: total workload (TW, I/Os) of a single-tuple insert
// vs the number of data server nodes L, for the five method variants.
//
// Two outputs: the analytical model's series (the paper's actual figure),
// and a *measured* overlay from the engine for the three implementable
// variants — the engine's metered I/O minus the base and view updates the
// model omits (validated to match exactly in cost_agreement_test).

#include <cstdio>

#include "bench/bench_util.h"
#include "model/figures.h"

namespace pjvm {
namespace {

double MeasuredTw(MaintenanceMethod method, int nodes, bool clustered) {
  SystemConfig sys_cfg;
  sys_cfg.num_nodes = nodes;
  sys_cfg.rows_per_page = 4;
  ParallelSystem sys(sys_cfg);
  TwoTableConfig cfg;
  cfg.b_join_keys = 100;
  cfg.fanout = 10;
  cfg.b_clustered_on_d = clustered;
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
  model::Figure fig = model::MakeFigure7();
  model::PrintFigure(fig, std::cout);

  bench::PrintHeader("Figure 7 measured overlay (engine, N=10)");
  std::printf("%8s %14s %14s %14s\n", "nodes", "aux_measured",
              "naive_nc_meas", "gi_nc_meas");
  model::Figure measured;
  measured.title = "Figure 7 measured overlay (engine, N=10)";
  measured.xlabel = fig.xlabel;
  measured.ylabel = fig.ylabel;
  measured.series = {{"aux_measured", {}, {}},
                     {"naive_nc_measured", {}, {}},
                     {"gi_nc_measured", {}, {}}};
  for (int l : {2, 4, 8, 16, 32}) {
    double aux = MeasuredTw(MaintenanceMethod::kAuxRelation, l, true);
    double naive = MeasuredTw(MaintenanceMethod::kNaive, l, false);
    double gi = MeasuredTw(MaintenanceMethod::kGlobalIndex, l, false);
    std::printf("%8d %14.1f %14.1f %14.1f\n", l, aux, naive, gi);
    double ys[] = {aux, naive, gi};
    for (int s = 0; s < 3; ++s) {
      measured.series[s].xs.push_back(l);
      measured.series[s].ys.push_back(ys[s]);
    }
  }
  bench::BenchReport report("fig7_tw_vs_nodes");
  report.AddFigure("model", fig);
  report.AddFigure("measured", measured);
  report.Write();
  return 0;
}
