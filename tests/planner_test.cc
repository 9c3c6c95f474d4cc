#include <gtest/gtest.h>

#include "tests/view_test_util.h"
#include "view/planner.h"
#include "workload/tpcr.h"

namespace pjvm {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddTable(MakeTableDef("A", ASchema(), "a")).ok());
    ASSERT_TRUE(catalog_.AddTable(MakeTableDef("B", BSchema(), "b")).ok());
    ASSERT_TRUE(catalog_.AddTable(MakeTableDef("C", CSchema(), "h")).ok());
  }

  BoundView Chain() {
    JoinViewDef def;
    def.name = "chain";
    def.bases = {{"A", "A"}, {"B", "B"}, {"C", "C"}};
    def.edges = {{{"A", "c"}, {"B", "d"}}, {{"B", "f"}, {"C", "g"}}};
    return *BoundView::Bind(def, catalog_);
  }

  Catalog catalog_;
};

FanoutFn UniformFanout(double f) {
  return [f](int, int) { return f; };
}

TEST_F(PlannerTest, ChainFromEndFollowsTheChain) {
  BoundView view = Chain();
  auto plan = PlanMaintenance(view, 0, UniformFanout(2));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].target_base, 1);  // B first (only reachable).
  EXPECT_EQ(plan->steps[1].target_base, 2);  // Then C.
  EXPECT_EQ(plan->steps[0].source_base, 0);
  EXPECT_EQ(plan->steps[1].source_base, 1);
  EXPECT_TRUE(plan->steps[0].residual.empty());
}

TEST_F(PlannerTest, ChainFromMiddleHasTwoIndependentSteps) {
  BoundView view = Chain();
  auto plan = PlanMaintenance(view, 1, UniformFanout(2));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 2u);
  // Both A and C hang off B; both must appear.
  std::set<int> targets = {plan->steps[0].target_base,
                           plan->steps[1].target_base};
  EXPECT_EQ(targets, (std::set<int>{0, 2}));
  EXPECT_EQ(plan->steps[0].source_base, 1);
  EXPECT_EQ(plan->steps[1].source_base, 1);
}

TEST_F(PlannerTest, GreedyPicksSmallerFanoutFirst) {
  BoundView view = Chain();
  // From B: joining A has fanout 5, joining C has fanout 1.
  FanoutFn fanout = [](int base, int) { return base == 0 ? 5.0 : 1.0; };
  auto plan = PlanMaintenance(view, 1, fanout);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps[0].target_base, 2);  // C (cheap) before A.
  EXPECT_EQ(plan->steps[1].target_base, 0);
}

TEST_F(PlannerTest, EnumerateAllPlansForChain) {
  BoundView view = Chain();
  // From base 0 the chain admits exactly one order; from base 1, two.
  EXPECT_EQ(EnumerateAllPlans(view, 0).size(), 1u);
  EXPECT_EQ(EnumerateAllPlans(view, 1).size(), 2u);
  EXPECT_EQ(EnumerateAllPlans(view, 2).size(), 1u);
}

TEST_F(PlannerTest, EstimateCostOrdersPlansSensibly) {
  BoundView view = Chain();
  FanoutFn fanout = [](int base, int) { return base == 0 ? 10.0 : 1.0; };
  std::vector<MaintenancePlan> plans = EnumerateAllPlans(view, 1);
  ASSERT_EQ(plans.size(), 2u);
  double c0 = EstimatePlanCost(view, plans[0], fanout);
  double c1 = EstimatePlanCost(view, plans[1], fanout);
  EXPECT_NE(c0, c1);
  // The greedy plan achieves the min enumerated cost.
  auto greedy = PlanMaintenance(view, 1, fanout);
  ASSERT_TRUE(greedy.ok());
  EXPECT_DOUBLE_EQ(EstimatePlanCost(view, *greedy, fanout), std::min(c0, c1));
}

TEST_F(PlannerTest, CyclicGraphProducesResidualChecks) {
  // Triangle: A-B, B-C, C-A. Starting at A, the second step must carry the
  // closing edge as a residual check.
  JoinViewDef def;
  def.name = "tri";
  def.bases = {{"A", "A"}, {"B", "B"}, {"C", "C"}};
  def.edges = {{{"A", "c"}, {"B", "d"}},
               {{"B", "f"}, {"C", "g"}},
               {{"C", "h"}, {"A", "e"}}};
  auto bound = BoundView::Bind(def, catalog_);
  ASSERT_TRUE(bound.ok());
  auto plan = PlanMaintenance(*bound, 0, UniformFanout(1));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_TRUE(plan->steps[0].residual.empty());
  EXPECT_EQ(plan->steps[1].residual.size(), 1u);
}

TEST_F(PlannerTest, InvalidBaseRejected) {
  BoundView view = Chain();
  EXPECT_FALSE(PlanMaintenance(view, -1, UniformFanout(1)).ok());
  EXPECT_FALSE(PlanMaintenance(view, 9, UniformFanout(1)).ok());
  EXPECT_TRUE(EnumerateAllPlans(view, 9).empty());
}

TEST_F(PlannerTest, ToStringMentionsAliases) {
  BoundView view = Chain();
  auto plan = PlanMaintenance(view, 0, UniformFanout(1));
  ASSERT_TRUE(plan.ok());
  std::string s = plan->ToString(view);
  EXPECT_NE(s.find("delta(A)"), std::string::npos);
  EXPECT_NE(s.find("-> B"), std::string::npos);
  EXPECT_NE(s.find("-> C"), std::string::npos);
}

TEST_F(PlannerTest, TwoWayViewHasSingleStep) {
  JoinViewDef def;
  def.name = "two";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  auto bound = BoundView::Bind(def, catalog_);
  ASSERT_TRUE(bound.ok());
  auto plan = PlanMaintenance(*bound, 0, UniformFanout(1));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_EQ(plan->steps[0].target_col, 1);  // B.d
  EXPECT_EQ(plan->steps[0].source_col, 1);  // A.c
}

// A step with one candidate is forced: the delta-aware planner must not pay
// the per-row key estimates (an all-node count each) to choose it.
TEST(PlannerForcedStepTest, Jv1Jv2CustomerDeltasAreNotScored) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(CustomerTableDef()).ok());
  ASSERT_TRUE(catalog.AddTable(OrdersTableDef()).ok());
  ASSERT_TRUE(catalog.AddTable(LineitemTableDef()).ok());
  std::vector<Row> delta;
  for (int64_t i = 0; i < 8; ++i) {
    delta.push_back(MakeDeltaCustomer(TpcrConfig{}, i));
  }
  for (const JoinViewDef& def : {MakeJv1(), MakeJv2()}) {
    auto view = BoundView::Bind(def, catalog);
    ASSERT_TRUE(view.ok());
    int key_calls = 0;
    int avg_calls = 0;
    auto plan = PlanMaintenanceForDelta(
        *view, /*updated_base=*/0, delta,
        [&](int, int) { ++avg_calls; return 1.0; },
        [&](int, int, const Value&) { ++key_calls; return 1.0; });
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(key_calls, 0) << def.name;
    EXPECT_EQ(avg_calls, 0) << def.name;
    // The chain from customer admits one order, which any scoring picks.
    std::vector<MaintenancePlan> all = EnumerateAllPlans(*view, 0);
    ASSERT_EQ(all.size(), 1u) << def.name;
    EXPECT_EQ(plan->ToString(*view), all[0].ToString(*view));
    ASSERT_EQ(plan->steps.size(), all[0].steps.size());
    for (size_t i = 0; i < plan->steps.size(); ++i) {
      EXPECT_EQ(plan->steps[i].source_col, all[0].steps[i].source_col);
      EXPECT_EQ(plan->steps[i].target_col, all[0].steps[i].target_col);
      EXPECT_EQ(plan->steps[i].residual.size(),
                all[0].steps[i].residual.size());
    }
  }
}

TEST_F(PlannerTest, TwoCandidatesAreScoredPerRowAndCandidate) {
  BoundView view = Chain();
  // From B, A and C are both reachable through B's own columns: each is
  // scored with every delta row. The last step (one candidate) is not.
  std::vector<Row> delta;
  for (int64_t i = 0; i < 5; ++i) {
    Row row(view.base_def(1).schema.num_columns(), Value{i});
    delta.push_back(std::move(row));
  }
  int key_calls = 0;
  auto plan = PlanMaintenanceForDelta(
      view, /*updated_base=*/1, delta, UniformFanout(1),
      [&](int base, int, const Value&) {
        ++key_calls;
        return base == 0 ? 5.0 : 1.0;
      });
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(key_calls, 5 * 2);
  EXPECT_EQ(plan->steps[0].target_base, 2);  // C (cheap) before A.
  EXPECT_EQ(plan->steps[1].target_base, 0);
}

}  // namespace
}  // namespace pjvm
