#include <gtest/gtest.h>

#include <memory>

#include "model/analytical.h"
#include "tests/view_test_util.h"
#include "view/view_manager.h"
#include "workload/twotable.h"

namespace pjvm {
namespace {

// These tests close the loop between the two halves of the reproduction:
// the engine's *metered* I/O for the Section 3.1 workload must equal the
// analytical model's closed-form TW, under the same counting rules. The
// model omits the base-relation update and the view update ("the same
// updates must be performed ... for any of the three methods, so we omit
// them"), so the engine side subtracts exactly those charges.

struct Measured {
  double tw = 0.0;       // Model-comparable maintenance I/O.
  uint64_t sends = 0;    // All messages, including the base/view ones.
  size_t view_rows = 0;  // Join tuples produced.
};

Measured MeasureSingleInsert(MaintenanceMethod method, int num_nodes,
                             int64_t fanout, bool clustered_on_d) {
  SystemConfig sys_cfg;
  sys_cfg.num_nodes = num_nodes;
  sys_cfg.rows_per_page = 4;
  auto sys = std::make_unique<ParallelSystem>(sys_cfg);
  TwoTableConfig cfg;
  cfg.b_join_keys = 100;
  cfg.fanout = fanout;
  cfg.b_clustered_on_d = clustered_on_d;
  LoadTwoTable(sys.get(), cfg).Check();
  ViewManager manager(sys.get());
  manager.RegisterView(MakeModelView(), method).Check();

  sys->cost().Reset();
  auto report = manager.InsertRow("A", MakeDeltaA(cfg, 0));
  report.status().Check();

  Measured m;
  m.view_rows = report->view_rows_inserted;
  double insert_w = sys->cost().weights().insert;
  // Subtract the base insert and the view inserts, as the model does.
  m.tw = sys->cost().TotalWorkload() - insert_w -
         insert_w * static_cast<double>(m.view_rows);
  m.sends = sys->cost().TotalSends();
  return m;
}

model::ModelParams ParamsFor(int num_nodes, int64_t fanout) {
  model::ModelParams p;
  p.num_nodes = num_nodes;
  p.fanout = static_cast<double>(fanout);
  return p;
}

class TwAgreement : public ::testing::TestWithParam<std::tuple<int, int64_t>> {
};

TEST_P(TwAgreement, AuxRelationMatchesModelExactly) {
  auto [nodes, fanout] = GetParam();
  Measured m =
      MeasureSingleInsert(MaintenanceMethod::kAuxRelation, nodes, fanout, true);
  EXPECT_DOUBLE_EQ(m.tw, model::TwAuxRelation(ParamsFor(nodes, fanout)));
  EXPECT_EQ(m.view_rows, static_cast<size_t>(fanout));
}

TEST_P(TwAgreement, NaiveNonClusteredMatchesModelExactly) {
  auto [nodes, fanout] = GetParam();
  Measured m =
      MeasureSingleInsert(MaintenanceMethod::kNaive, nodes, fanout, false);
  EXPECT_DOUBLE_EQ(m.tw,
                   model::TwNaive(ParamsFor(nodes, fanout), /*clustered=*/false));
}

TEST_P(TwAgreement, NaiveClusteredMatchesModelExactly) {
  auto [nodes, fanout] = GetParam();
  Measured m =
      MeasureSingleInsert(MaintenanceMethod::kNaive, nodes, fanout, true);
  EXPECT_DOUBLE_EQ(m.tw,
                   model::TwNaive(ParamsFor(nodes, fanout), /*clustered=*/true));
}

TEST_P(TwAgreement, GiDistributedNonClusteredMatchesModelExactly) {
  auto [nodes, fanout] = GetParam();
  Measured m = MeasureSingleInsert(MaintenanceMethod::kGlobalIndex, nodes,
                                   fanout, false);
  EXPECT_DOUBLE_EQ(m.tw, model::TwGlobalIndex(ParamsFor(nodes, fanout),
                                              /*distributed_clustered=*/false));
}

TEST_P(TwAgreement, GiDistributedClusteredMatchesModelApproximately) {
  auto [nodes, fanout] = GetParam();
  Measured m = MeasureSingleInsert(MaintenanceMethod::kGlobalIndex, nodes,
                                   fanout, true);
  // The model assumes the N matches spread over exactly K = min(N, L)
  // nodes; hash placement can land them on fewer, making the engine cheaper
  // by the difference. The engine must never exceed the model.
  double predicted = model::TwGlobalIndex(ParamsFor(nodes, fanout),
                                          /*distributed_clustered=*/true);
  EXPECT_LE(m.tw, predicted);
  EXPECT_GE(m.tw, 3.0);  // At least INSERT + SEARCH.
}

std::string TwName(
    const ::testing::TestParamInfo<std::tuple<int, int64_t>>& info) {
  return "L" + std::to_string(std::get<0>(info.param)) + "_N" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwAgreement,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(1, 4, 10)),
                         TwName);

// SEND counts for the two deterministic methods.
TEST(SendAgreementTest, AuxUsesTwoSendsPlusViewRouting) {
  Measured m = MeasureSingleInsert(MaintenanceMethod::kAuxRelation, 8, 4, true);
  // 1 ship to the AR node + 1 ship of the join tuples to the view node; the
  // hash placement can make either hop local (free), never more than 2.
  EXPECT_LE(m.sends, 2u);
}

TEST(SendAgreementTest, NaiveUsesAtLeastLSends) {
  int nodes = 8;
  Measured m = MeasureSingleInsert(MaintenanceMethod::kNaive, nodes, 4, true);
  EXPECT_GE(m.sends, static_cast<uint64_t>(nodes));
  // L broadcast + at most K result sends.
  EXPECT_LE(m.sends, static_cast<uint64_t>(nodes) + 4);
}

// Response-time trend: for the paper's small-update regime, the measured
// per-node maintenance I/O of the AR method shrinks with L while the naive
// method's stays roughly flat (Figures 9 and 14's shape).
TEST(ResponseTrendTest, AuxScalesOutNaiveDoesNot) {
  // B must dwarf the delta (the paper's small-update regime) or the naive
  // method's sort-merge scan would win, as Figure 10 shows it should.
  auto response = [](MaintenanceMethod method, int nodes) {
    SystemConfig sys_cfg;
    sys_cfg.num_nodes = nodes;
    sys_cfg.rows_per_page = 4;
    ParallelSystem sys(sys_cfg);
    TwoTableConfig cfg;
    cfg.b_join_keys = 2048;
    cfg.fanout = 1;
    LoadTwoTable(&sys, cfg).Check();
    ViewManager manager(&sys);
    manager.RegisterView(MakeModelView(), method).Check();
    std::vector<Row> batch;
    for (int64_t i = 0; i < 64; ++i) batch.push_back(MakeDeltaA(cfg, i));
    sys.cost().Reset();
    manager.ApplyDelta(DeltaBatch::Inserts("A", batch)).status().Check();
    return sys.cost().ResponseTime();
  };
  double aux_4 = response(MaintenanceMethod::kAuxRelation, 4);
  double aux_16 = response(MaintenanceMethod::kAuxRelation, 16);
  EXPECT_LT(aux_16, aux_4 * 0.6);  // Near-linear scale-out.
  double naive_4 = response(MaintenanceMethod::kNaive, 4);
  double naive_16 = response(MaintenanceMethod::kNaive, 16);
  // Quadrupling the nodes buys the naive method far less than linear (its
  // sort-merge fallback does shrink |B_i|, so allow up to ~2.5x, not 4x).
  EXPECT_GT(naive_16, naive_4 * 0.4);
  // And AR beats naive outright once L > 3 (the model's Figure 9 regime).
  EXPECT_LT(aux_4, naive_4);
  EXPECT_LT(aux_16, naive_16);
}

}  // namespace
}  // namespace pjvm
