#include "view/planner.h"

#include <algorithm>

namespace pjvm {

namespace {

/// Candidate edges that connect a filled base to an unfilled one, expressed
/// as (source base/col, target base/col).
struct Candidate {
  int source_base;
  int source_col;
  int target_base;
  int target_col;
  int edge_index;
};

std::vector<Candidate> FindCandidates(const BoundView& view,
                                      const std::vector<bool>& filled) {
  std::vector<Candidate> out;
  const auto& edges = view.bound_edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    const BoundEdge& e = edges[i];
    if (filled[e.left_base] && !filled[e.right_base]) {
      out.push_back({e.left_base, e.left_col, e.right_base, e.right_col,
                     static_cast<int>(i)});
    } else if (filled[e.right_base] && !filled[e.left_base]) {
      out.push_back({e.right_base, e.right_col, e.left_base, e.left_col,
                     static_cast<int>(i)});
    }
  }
  return out;
}

PlanStep MakeStep(const BoundView& view, const Candidate& c,
                  const std::vector<bool>& filled) {
  PlanStep step;
  step.target_base = c.target_base;
  step.target_col = c.target_col;
  step.source_base = c.source_base;
  step.source_col = c.source_col;
  // Every other edge touching the target whose far side is already filled
  // becomes a residual check.
  const auto& edges = view.bound_edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (static_cast<int>(i) == c.edge_index) continue;
    const BoundEdge& e = edges[i];
    if ((e.left_base == c.target_base && filled[e.right_base]) ||
        (e.right_base == c.target_base && filled[e.left_base])) {
      step.residual.push_back(e);
    }
  }
  return step;
}

void Enumerate(const BoundView& view, std::vector<bool>& filled,
               MaintenancePlan& partial, std::vector<MaintenancePlan>& out) {
  if (partial.steps.size() + 1 == static_cast<size_t>(view.num_bases())) {
    out.push_back(partial);
    return;
  }
  std::vector<Candidate> candidates = FindCandidates(view, filled);
  // Deduplicate by target base: two edges reaching the same new base via
  // different keys are distinct access choices, so keep both.
  for (const Candidate& c : candidates) {
    partial.steps.push_back(MakeStep(view, c, filled));
    filled[c.target_base] = true;
    Enumerate(view, filled, partial, out);
    filled[c.target_base] = false;
    partial.steps.pop_back();
  }
}

}  // namespace

std::string MaintenancePlan::ToString(const BoundView& view) const {
  std::string out =
      "delta(" + view.def().bases[updated_base].alias + ")";
  for (const PlanStep& s : steps) {
    out += " -> " + view.def().bases[s.target_base].alias + " on " +
           view.def().bases[s.source_base].alias + "." +
           view.base_def(s.source_base).schema.column(s.source_col).name + "=" +
           view.def().bases[s.target_base].alias + "." +
           view.base_def(s.target_base).schema.column(s.target_col).name;
    if (!s.residual.empty()) {
      out += " (+" + std::to_string(s.residual.size()) + " residual)";
    }
  }
  return out;
}

namespace {

/// Shared greedy loop: `score(candidate)` returns the estimated fanout used
/// to rank candidates. A step with a single candidate is forced and is not
/// scored: the estimate could not change the plan.
Result<MaintenancePlan> GreedyPlan(
    const BoundView& view, int updated_base,
    const std::function<double(const Candidate&)>& score) {
  if (updated_base < 0 || updated_base >= view.num_bases()) {
    return Status::InvalidArgument("planner: bad updated base index");
  }
  MaintenancePlan plan;
  plan.updated_base = updated_base;
  std::vector<bool> filled(view.num_bases(), false);
  filled[updated_base] = true;
  for (int k = 1; k < view.num_bases(); ++k) {
    std::vector<Candidate> candidates = FindCandidates(view, filled);
    if (candidates.empty()) {
      return Status::Internal("planner: join graph disconnected from base " +
                              std::to_string(updated_base));
    }
    const Candidate* best = &candidates[0];
    double best_fanout = candidates.size() > 1 ? score(*best) : 0.0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      double f = score(candidates[i]);
      if (f < best_fanout) {
        best = &candidates[i];
        best_fanout = f;
      }
    }
    plan.steps.push_back(MakeStep(view, *best, filled));
    filled[best->target_base] = true;
  }
  return plan;
}

}  // namespace

Result<MaintenancePlan> PlanMaintenance(const BoundView& view, int updated_base,
                                        const FanoutFn& fanout) {
  return GreedyPlan(view, updated_base, [&](const Candidate& c) {
    return fanout(c.target_base, c.target_col);
  });
}

Result<MaintenancePlan> PlanMaintenanceForDelta(
    const BoundView& view, int updated_base, const std::vector<Row>& delta_rows,
    const FanoutFn& avg_fanout, const KeyFanoutFn& key_fanout) {
  return GreedyPlan(view, updated_base, [&](const Candidate& c) {
    if (c.source_base != updated_base || delta_rows.empty()) {
      return avg_fanout(c.target_base, c.target_col);
    }
    // The probe keys are known: they are this delta's source-column values.
    double total = 0.0;
    for (const Row& row : delta_rows) {
      total += key_fanout(c.target_base, c.target_col, row[c.source_col]);
    }
    return total / static_cast<double>(delta_rows.size());
  });
}

std::vector<MaintenancePlan> EnumerateAllPlans(const BoundView& view,
                                               int updated_base) {
  std::vector<MaintenancePlan> out;
  if (updated_base < 0 || updated_base >= view.num_bases()) return out;
  std::vector<bool> filled(view.num_bases(), false);
  filled[updated_base] = true;
  MaintenancePlan partial;
  partial.updated_base = updated_base;
  Enumerate(view, filled, partial, out);
  return out;
}

double EstimatePlanCost(const BoundView& view, const MaintenancePlan& plan,
                        const FanoutFn& fanout) {
  (void)view;
  double partials = 1.0;
  double cost = 0.0;
  for (const PlanStep& step : plan.steps) {
    // Each partial is routed (1 send) and probed (1 search); results carry
    // the per-key fanout forward.
    cost += partials * 2.0;
    partials *= std::max(fanout(step.target_base, step.target_col), 1e-9);
    cost += partials;  // Materializing/forwarding the step's results.
  }
  return cost;
}

}  // namespace pjvm
