// Seeded, single-threaded interleavings of maintenance deltas, view
// registration churn (which drops and re-creates tables), checkpoints and
// crashes injected inside two-phase commit. After every recovery the views
// must match the from-scratch oracle and the bases must hold exactly the
// committed deltas.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tests/view_test_util.h"
#include "view/view_manager.h"

namespace pjvm {
namespace {

using FuzzParam = std::tuple<MaintenanceMethod, bool, bool>;

class RecoveryFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

// The model's bag minus one `row`, which the caller knows is there.
void Remove(RowCounts* bag, const Row& row) {
  if (--(*bag)[row] == 0) bag->erase(row);
}

// Picks one row of `bag` uniformly by multiplicity.
Row Pick(const RowCounts& bag, Rng* rng) {
  int total = 0;
  for (const auto& [row, count] : bag) total += count;
  int at = static_cast<int>(rng->UniformInt(0, total - 1));
  for (const auto& [row, count] : bag) {
    if (at < count) return row;
    at -= count;
  }
  return {};
}

TEST_P(RecoveryFuzzTest, InterleavedStepsRecoverConsistently) {
  const auto [method, mvcc, locking] = GetParam();
  SystemConfig cfg = TwoTableFixture::Config(4);
  cfg.mvcc_reads = mvcc;
  cfg.enable_locking = locking;
  TwoTableFixture fx(cfg, /*b_keys=*/8, /*fanout=*/2);
  ASSERT_TRUE(fx.manager->RegisterView(fx.MakeView("JV"), method).ok());
  // The second view uses another method, so its churn also drops and
  // re-creates auxiliary relations or global indexes of its own.
  const auto second_method = static_cast<MaintenanceMethod>(
      (static_cast<int>(method) + 1) % 3);
  bool second_registered = false;

  RowCounts model_a;
  RowCounts model_b = RowBag(fx.sys->ScanAll("B"));
  int64_t next_b = 1000;
  Rng rng(0x5eed + static_cast<uint64_t>(method) * 4 + (mvcc ? 2 : 0) +
          (locking ? 1 : 0));

  // One random base delta: its batch, and how the model changes if it
  // commits.
  auto make_delta = [&](DeltaBatch* delta, RowCounts** model,
                        std::vector<Row>* removed, std::vector<Row>* added) {
    const bool on_a = rng.Bernoulli(0.7);
    RowCounts& bag = on_a ? model_a : model_b;
    delta->table = on_a ? "A" : "B";
    *model = &bag;
    const int64_t kind = bag.empty() ? 0 : rng.UniformInt(0, 2);
    Row fresh = on_a ? fx.NextARow(rng.UniformInt(0, 9))
                     : Row{Value{next_b}, Value{rng.UniformInt(0, 9)},
                           Value{next_b * 10}};
    if (!on_a) ++next_b;
    if (kind == 0) {
      delta->inserts.push_back(fresh);
      added->push_back(fresh);
    } else if (kind == 1) {
      Row victim = Pick(bag, &rng);
      delta->deletes.push_back(victim);
      removed->push_back(victim);
    } else {
      Row victim = Pick(bag, &rng);
      delta->updates.emplace_back(victim, fresh);
      removed->push_back(victim);
      added->push_back(fresh);
    }
  };
  auto apply_to_model = [](RowCounts* bag, const std::vector<Row>& removed,
                           const std::vector<Row>& added) {
    for (const Row& row : removed) Remove(bag, row);
    for (const Row& row : added) ++(*bag)[row];
  };
  auto expect_recovered = [&](int step) {
    ASSERT_TRUE(fx.sys->Recover().ok()) << "step " << step;
    ASSERT_TRUE(fx.manager->RecoverViews().ok()) << "step " << step;
    Status st = fx.manager->CheckAllConsistent();
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
    ASSERT_EQ(RowBag(fx.sys->ScanAll("A")), model_a) << "step " << step;
    ASSERT_EQ(RowBag(fx.sys->ScanAll("B")), model_b) << "step " << step;
  };

  constexpr int kSteps = 200;
  for (int step = 0; step < kSteps; ++step) {
    const int64_t action = rng.UniformInt(0, 9);
    if (action <= 5) {
      DeltaBatch delta;
      RowCounts* model = nullptr;
      std::vector<Row> removed, added;
      make_delta(&delta, &model, &removed, &added);
      Status st = fx.manager->ApplyDelta(std::move(delta)).status();
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
      apply_to_model(model, removed, added);
    } else if (action == 6) {
      Status st = second_registered
                      ? fx.manager->UnregisterView("JV2")
                      : fx.manager->RegisterView(fx.MakeView("JV2", false),
                                                 second_method);
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
      second_registered = !second_registered;
    } else if (action == 7) {
      Status st = fx.sys->Checkpoint();
      ASSERT_TRUE(st.ok()) << "step " << step << ": " << st;
    } else {
      // A crash: with no transaction in flight, or injected at one of the
      // 2PC points of the next delta. Only a crash after the commit
      // decision keeps that delta.
      const auto point = static_cast<FailurePoint>(rng.UniformInt(0, 3));
      if (point == FailurePoint::kNone) {
        fx.sys->Crash();
      } else {
        DeltaBatch delta;
        RowCounts* model = nullptr;
        std::vector<Row> removed, added;
        make_delta(&delta, &model, &removed, &added);
        fx.sys->txns().InjectFailure(point);
        Status st = fx.manager->ApplyDelta(std::move(delta)).status();
        ASSERT_TRUE(st.IsAborted()) << "step " << step << ": " << st;
        if (point == FailurePoint::kAfterDecision) {
          apply_to_model(model, removed, added);
        }
      }
      expect_recovered(step);
    }
  }
  fx.sys->Crash();
  expect_recovered(kSteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsMvccLocking, RecoveryFuzzTest,
    ::testing::Combine(::testing::Values(MaintenanceMethod::kNaive,
                                         MaintenanceMethod::kAuxRelation,
                                         MaintenanceMethod::kGlobalIndex),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      return std::string(MaintenanceMethodToString(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_Mvcc" : "_Live") +
             (std::get<2>(info.param) ? "_Locking" : "_NoLocking");
    });

}  // namespace
}  // namespace pjvm
