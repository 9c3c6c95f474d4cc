#ifndef PJVM_PERFBENCH_SPAN_MATH_H_
#define PJVM_PERFBENCH_SPAN_MATH_H_

// Span arithmetic for the benchmark's traced run: turns the spans the engine
// already records (obs/trace.h) into per-layer self times, executor dispatch
// gaps and per-task storage time, attributed to maintenance transactions
// (`maintain_txn` spans).
//
// Vocabulary:
//  - A *client thread* records at least one complete non-task span; every
//    other thread is an executor worker.
//  - Spans on one thread nest by time (they come from RAII guards). A span's
//    *self time* is its duration minus the part its direct children cover.
//  - A *task* is a span of category "task". An off-thread task ran on a
//    worker; its *fan-out* is the client-side span that was open around it —
//    the latest-starting client span whose interval contains the task.
//  - A fan-out's *dispatch* time is the executor handoff: the gap from the
//    last client-side event before its first task (the fan-out's start, a
//    `send` instant, or the end of a child span) to that task's start, plus
//    the gap from its last task's end to the fan-out's end.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "obs/trace.h"

namespace pjvm::perfbench {

/// Per-layer totals over a set of maintenance transactions, in nanoseconds
/// (times) and plain counts. Divide by `deltas` for per-delta values.
struct LayerSums {
  uint64_t deltas = 0;
  double txn_ns = 0;              ///< maintain_txn durations
  double txn_self_ns = 0;         ///< maintain_txn self time
  double base_update_self_ns = 0;
  double structure_update_self_ns = 0;
  double maintain_self_ns = 0;    ///< maintain_view self time
  double step_ns = 0;             ///< step span durations
  double step_self_ns = 0;
  double commit_self_ns = 0;      ///< commit_2pc self time
  double other_self_ns = 0;       ///< any other client-side span in the txn
  double dispatch_ns = 0;
  double task_ns = 0;             ///< summed task durations
  double task_max_ns = 0;         ///< per fan-out longest task, summed
  uint64_t tasks = 0;
  uint64_t fanouts = 0;
  /// maintain_txn spans without a base_update, structure_update,
  /// maintain_view or commit_2pc child: their time would silently move from
  /// the named layers into unattributed_us.
  uint64_t incomplete_txns = 0;

  LayerSums& operator+=(const LayerSums& o) {
    deltas += o.deltas;
    txn_ns += o.txn_ns;
    txn_self_ns += o.txn_self_ns;
    base_update_self_ns += o.base_update_self_ns;
    structure_update_self_ns += o.structure_update_self_ns;
    maintain_self_ns += o.maintain_self_ns;
    step_ns += o.step_ns;
    step_self_ns += o.step_self_ns;
    commit_self_ns += o.commit_self_ns;
    other_self_ns += o.other_self_ns;
    dispatch_ns += o.dispatch_ns;
    task_ns += o.task_ns;
    task_max_ns += o.task_max_ns;
    tasks += o.tasks;
    fanouts += o.fanouts;
    incomplete_txns += o.incomplete_txns;
    return *this;
  }

  /// The self times that have a layer metric of their own.
  double AttributedNs() const {
    return base_update_self_ns + structure_update_self_ns + maintain_self_ns +
           step_self_ns + commit_self_ns;
  }
  /// view.txn_us minus the attributed self times.
  double UnattributedNs() const { return txn_ns - AttributedNs(); }
  /// |attributed + (independently summed remaining self time) - txn| as a
  /// share of txn time. Self times come from one nesting, so this is nonzero
  /// only when same-thread spans overlap without nesting (malformed spans);
  /// the benchmark requires it below kReconcileTolerance.
  double ReconcileError() const {
    if (txn_ns <= 0) return 0.0;
    const double rest = txn_self_ns + other_self_ns;
    const double err = AttributedNs() + rest - txn_ns;
    return (err < 0 ? -err : err) / txn_ns;
  }
};

/// Largest ReconcileError() a run accepts.
inline constexpr double kReconcileTolerance = 1e-3;

namespace internal {

inline bool Is(const TraceSpan& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}
inline bool IsTask(const TraceSpan& s) {
  return std::strcmp(s.category, "task") == 0;
}
inline bool IsStep(const TraceSpan& s) {
  return Is(s, "broadcast_step") || Is(s, "routed_step") ||
         Is(s, "merged_routed_step") || Is(s, "gi_lookup") ||
         Is(s, "gi_fetch");
}
inline uint64_t End(const TraceSpan& s) { return s.start_ns + s.dur_ns; }

}  // namespace internal

/// Same-thread nesting of complete spans: outermost ancestor, direct
/// children and self time.
struct Nesting {
  std::vector<int> root;
  std::vector<uint64_t> self_ns;
  std::vector<std::vector<int>> children;
};

/// Builds the nesting forest of `spans` (instants are skipped: they get
/// root -1, no children and zero self time).
inline Nesting NestSpans(const std::vector<TraceSpan>& spans) {
  using internal::End;
  const size_t n = spans.size();
  Nesting out;
  out.root.assign(n, -1);
  out.self_ns.assign(n, 0);
  out.children.assign(n, {});
  std::vector<int> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].kind == TraceSpan::Kind::kComplete) {
      order.push_back(static_cast<int>(i));
    }
  }
  // Per thread by start; on equal starts the enclosing (longer, shallower)
  // span comes first.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const TraceSpan& x = spans[a];
    const TraceSpan& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.dur_ns != y.dur_ns) return x.dur_ns > y.dur_ns;
    return x.depth < y.depth;
  });
  std::vector<int> stack;
  int tid = -1;
  for (int i : order) {
    const TraceSpan& s = spans[i];
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && End(spans[stack.back()]) <= s.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      out.root[i] = out.root[stack.back()];
      out.children[stack.back()].push_back(i);
    } else {
      out.root[i] = i;
    }
    stack.push_back(i);
  }
  for (int i : order) {
    const TraceSpan& s = spans[i];
    uint64_t covered = 0;
    for (int c : out.children[i]) {
      const uint64_t end = std::min(End(spans[c]), End(s));
      if (end > spans[c].start_ns) covered += end - spans[c].start_ns;
    }
    out.self_ns[i] = s.dur_ns > covered ? s.dur_ns - covered : 0;
  }
  return out;
}

/// Attributes every span in `spans` to the maintenance transaction that
/// contains it and returns the per-layer totals. Spans outside any
/// maintain_txn (client reads, set-up work) are ignored.
inline LayerSums AnalyzeSpans(const std::vector<TraceSpan>& spans) {
  using internal::End;
  using internal::Is;
  using internal::IsStep;
  using internal::IsTask;
  const Nesting nest = NestSpans(spans);
  const size_t n = spans.size();
  LayerSums sums;

  auto txn_root = [&](int i) -> int {
    const int r = nest.root[i];
    return (r >= 0 && Is(spans[r], "maintain_txn")) ? r : -1;
  };

  // Client threads, client-side fan-out candidates, and send instants.
  std::set<int> client_tids;
  for (const TraceSpan& s : spans) {
    if (s.kind == TraceSpan::Kind::kComplete && !IsTask(s)) {
      client_tids.insert(s.tid);
    }
  }
  std::vector<int> candidates;
  std::map<int, std::vector<uint64_t>> sends;  // tid -> instant times
  for (size_t i = 0; i < n; ++i) {
    const TraceSpan& s = spans[i];
    if (s.kind == TraceSpan::Kind::kInstant) {
      if (Is(s, "send")) sends[s.tid].push_back(s.start_ns);
      continue;
    }
    if (client_tids.count(s.tid) > 0 && !IsTask(s)) {
      candidates.push_back(static_cast<int>(i));
    }
  }
  for (auto& [tid, times] : sends) std::sort(times.begin(), times.end());
  // By start; on equal starts the inner (shorter) span sorts last, so the
  // backward walk below meets it first.
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].dur_ns > spans[b].dur_ns;
  });

  // Client-side layers: every complete span on a client thread whose
  // outermost ancestor is a maintain_txn.
  for (size_t i = 0; i < n; ++i) {
    const TraceSpan& s = spans[i];
    if (s.kind != TraceSpan::Kind::kComplete) continue;
    if (client_tids.count(s.tid) == 0) continue;
    const int root = txn_root(static_cast<int>(i));
    if (root < 0) continue;
    const double self = static_cast<double>(nest.self_ns[i]);
    if (root == static_cast<int>(i)) {
      ++sums.deltas;
      sums.txn_ns += static_cast<double>(s.dur_ns);
      sums.txn_self_ns += self;
      bool has[4] = {false, false, false, false};
      for (int c : nest.children[i]) {
        has[0] = has[0] || Is(spans[c], "base_update");
        has[1] = has[1] || Is(spans[c], "structure_update");
        has[2] = has[2] || Is(spans[c], "maintain_view");
        has[3] = has[3] || Is(spans[c], "commit_2pc");
      }
      if (!(has[0] && has[1] && has[2] && has[3])) ++sums.incomplete_txns;
    } else if (Is(s, "base_update")) {
      sums.base_update_self_ns += self;
    } else if (Is(s, "structure_update")) {
      sums.structure_update_self_ns += self;
    } else if (Is(s, "maintain_view")) {
      sums.maintain_self_ns += self;
    } else if (IsStep(s)) {
      sums.step_ns += static_cast<double>(s.dur_ns);
      sums.step_self_ns += self;
    } else if (Is(s, "commit_2pc")) {
      sums.commit_self_ns += self;
    } else {
      sums.other_self_ns += self;
    }
    if (IsTask(s)) {  // inline task: storage work, no handoff
      ++sums.tasks;
      sums.task_ns += static_cast<double>(s.dur_ns);
    }
  }

  // Off-thread tasks, grouped by the fan-out that was open around them.
  struct FanOut {
    uint64_t first_start = UINT64_MAX;
    uint64_t last_end = 0;
    uint64_t longest = 0;
    uint64_t total = 0;
    uint64_t count = 0;
  };
  std::map<int, FanOut> fanouts;
  for (size_t i = 0; i < n; ++i) {
    const TraceSpan& t = spans[i];
    if (t.kind != TraceSpan::Kind::kComplete || !IsTask(t)) continue;
    if (client_tids.count(t.tid) > 0) continue;
    // Latest-starting candidate that contains the task: walk back from the
    // last candidate starting at or before it, past the earlier siblings
    // that already ended. The cap bounds the walk for a task no client span
    // contains.
    auto it = std::upper_bound(
        candidates.begin(), candidates.end(), t.start_ns,
        [&](uint64_t v, int c) { return v < spans[c].start_ns; });
    int owner = -1;
    for (int steps = 0; it != candidates.begin() && steps < 1024; ++steps) {
      --it;
      if (End(spans[*it]) >= End(t)) {
        owner = *it;
        break;
      }
    }
    if (owner < 0 || txn_root(owner) < 0) continue;
    FanOut& f = fanouts[owner];
    f.first_start = std::min(f.first_start, t.start_ns);
    f.last_end = std::max(f.last_end, End(t));
    f.longest = std::max(f.longest, t.dur_ns);
    f.total += t.dur_ns;
    ++f.count;
  }
  for (const auto& [owner, f] : fanouts) {
    const TraceSpan& fan = spans[owner];
    uint64_t last_event = fan.start_ns;
    auto sit = sends.find(fan.tid);
    if (sit != sends.end()) {
      auto after = std::upper_bound(sit->second.begin(), sit->second.end(),
                                    f.first_start);
      if (after != sit->second.begin() && *(after - 1) >= fan.start_ns) {
        last_event = std::max(last_event, *(after - 1));
      }
    }
    for (int c : nest.children[owner]) {
      const uint64_t end = End(spans[c]);
      if (end <= f.first_start) last_event = std::max(last_event, end);
    }
    const uint64_t head = f.first_start > last_event
                              ? f.first_start - last_event
                              : 0;
    const uint64_t tail = End(fan) > f.last_end ? End(fan) - f.last_end : 0;
    sums.dispatch_ns += static_cast<double>(head + tail);
    sums.task_ns += static_cast<double>(f.total);
    sums.task_max_ns += static_cast<double>(f.longest);
    sums.tasks += f.count;
    ++sums.fanouts;
  }
  return sums;
}

}  // namespace pjvm::perfbench

#endif  // PJVM_PERFBENCH_SPAN_MATH_H_
