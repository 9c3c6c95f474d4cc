// The PJVM benchmark program: end-to-end maintenance latency per method on
// two single-client workloads, plus a traced per-layer split. See
// perfbench/README.md for the workloads, metrics and gates; perfbench/run.py
// builds and drives it.
//
//   pjvm_bench --workload point_l4|tpcr_batch_l16 --seed N --seconds S
//              --trace 0|1
//
// The last stdout line is one JSON object: correct/attempted/failed, every
// metric by name, and a "report" with stamps, sample counts and gate results.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "span_math.h"

namespace pjvm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Loaded data and the gate prefix are the same in every run, so the prefix's
// paper counters (tw_io_per_delta, storage/net counts) repeat exactly across
// seeds; --seed drives the timed client stream.
constexpr uint64_t kDataSeed = 42;

constexpr MaintenanceMethod kMethods[] = {MaintenanceMethod::kNaive,
                                          MaintenanceMethod::kAuxRelation,
                                          MaintenanceMethod::kGlobalIndex};

const char* Tag(MaintenanceMethod m) {
  switch (m) {
    case MaintenanceMethod::kNaive:
      return "naive";
    case MaintenanceMethod::kAuxRelation:
      return "ar";
    case MaintenanceMethod::kGlobalIndex:
      return "gi";
  }
  return "?";
}

std::string Fnv(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------ client state

/// What the client did: committed delta latencies in microseconds, in
/// completion order.
struct ClientLog {
  std::vector<double> delta_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK statuses and wrong read-backs
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// Exact per-delta paper counters over the deterministic gate prefix: the
/// CostTracker and interconnect diffs around each ApplyDelta only (read-back
/// probes are excluded).
struct GateMeter {
  std::vector<NodeCounters> per_node;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double rt_io = 0;  // sum over deltas of max-node weighted I/O
  uint64_t deltas = 0;

  NodeCounters Total() const {
    NodeCounters t;
    for (const NodeCounters& c : per_node) t += c;
    return t;
  }
  /// The per-node CostTracker fingerprint the gates compare.
  std::string Fingerprint() const {
    std::string s;
    for (const NodeCounters& c : per_node) {
      for (uint64_t v : {c.searches, c.fetches, c.inserts, c.sends,
                         c.bytes_sent, c.base_writes, c.structure_writes,
                         c.view_writes, c.descents}) {
        s += std::to_string(v);
        s += ',';
      }
      s += ';';
    }
    s += std::to_string(messages) + "/" + std::to_string(bytes);
    return Fnv(s);
  }
};

// ------------------------------------------------------------- workloads

/// One workload: builds a fresh system per (method, pass) and replays the
/// same seeded client stream on it.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int num_nodes() const = 0;
  /// Gate-prefix deltas (also the timing warm-up).
  virtual int gate_ops() const = 0;
  virtual std::vector<std::string> views() const = 0;
  /// Set-ups per untraced pass; `setup_s` is the median over all of them.
  virtual int setup_repeats() const { return 1; }

  /// Constructs, loads and registers views; rewinds the client state.
  Status Setup(MaintenanceMethod method, bool traced) {
    Teardown();
    SystemConfig cfg;
    cfg.num_nodes = num_nodes();
    cfg.io_stall_ns = 0;
    cfg.wal_force_ns = 0;
    cfg.trace_enabled = traced;
    sys_ = std::make_unique<ParallelSystem>(cfg);
    PJVM_RETURN_NOT_OK(Load());
    vm_ = std::make_unique<ViewManager>(sys_.get());
    for (const JoinViewDef& def : ViewDefs()) {
      PJVM_RETURN_NOT_OK(vm_->RegisterView(def, method));
    }
    return Rewind();
  }
  void Teardown() {
    vm_.reset();
    sys_.reset();
  }

  /// Re-seeds the client stream; the tables keep their current state.
  virtual void Seed(uint64_t seed) = 0;

  /// One delta, with the workload's read-back check.
  virtual void Op(ClientLog* log, GateMeter* meter) = 0;

  ViewManager* vm() { return vm_.get(); }

 protected:
  virtual Status Load() = 0;
  virtual std::vector<JoinViewDef> ViewDefs() const = 0;
  virtual Status Rewind() = 0;

  /// Runs one maintenance transaction and records its latency (and, with a
  /// meter, its counters). Returns whether it committed.
  bool Delta(DeltaBatch delta, ClientLog* log, GateMeter* meter) {
    std::vector<NodeCounters> before;
    uint64_t msgs = 0;
    uint64_t bytes = 0;
    if (meter != nullptr) {
      before = sys_->cost().Snapshot();
      msgs = sys_->network().TotalMessages();
      bytes = sys_->network().TotalBytes();
    }
    const Clock::time_point start = Clock::now();
    Result<MaintenanceReport> r = vm_->ApplyDelta(std::move(delta));
    const Clock::time_point end = Clock::now();
    ++log->attempted;
    if (!r.ok()) {
      log->Fail(r.status().ToString());
      return false;
    }
    log->delta_us.push_back(Micros(end - start));
    if (meter != nullptr) {
      std::vector<NodeCounters> after = sys_->cost().Snapshot();
      meter->per_node.resize(after.size());
      double rt = 0;
      for (size_t i = 0; i < after.size(); ++i) {
        NodeCounters d = after[i] - before[i];
        rt = std::max(rt, d.IO(sys_->cost().weights()));
        meter->per_node[i] += d;
      }
      meter->rt_io += rt;
      meter->messages += sys_->network().TotalMessages() - msgs;
      meter->bytes += sys_->network().TotalBytes() - bytes;
      ++meter->deltas;
    }
    return true;
  }

  /// Reads back the view rows with `column` = `key`; fails the op unless
  /// there are exactly `want` of them and each passes `good`.
  template <typename Pred>
  void Expect(const std::string& view, const std::string& column, int64_t key,
              size_t want, Pred good, ClientLog* log) {
    Result<std::vector<Row>> rows = sys_->SelectEq(view, column, Value{key});
    if (!rows.ok()) {
      log->Fail(rows.status().ToString());
      return;
    }
    bool ok = rows->size() == want;
    for (const Row& row : *rows) ok = ok && good(row);
    if (!ok) {
      log->Fail("read-back " + view + " " + column + "=" +
                std::to_string(key) + ": got " + std::to_string(rows->size()) +
                " rows, want " + std::to_string(want));
    }
  }

  int Col(const std::string& table, const std::string& column) const {
    return *(*sys_->catalog().Get(table))->schema.ColumnIndex(column);
  }

  std::unique_ptr<ParallelSystem> sys_;
  std::unique_ptr<ViewManager> vm_;
};

/// point_l4: the model view JV = A ⋈ B on c = d at L=4 (B: 500 keys x
/// fanout 4, clustered on d; 2000 live A rows with unique e = a). Each op
/// moves one live A row to a uniform other join key, then reads its view
/// rows back (exactly kFanout, all on the new key).
class PointWorkload : public Workload {
 public:
  static constexpr int64_t kKeys = 500;
  static constexpr int64_t kFanout = 4;
  static constexpr int64_t kARows = 2000;

  const char* name() const override { return "point_l4"; }
  int num_nodes() const override { return 4; }
  int gate_ops() const override { return 400; }
  int setup_repeats() const override { return 20; }
  std::vector<std::string> views() const override { return {"JV"}; }
  void Seed(uint64_t seed) override {
    rng_ = Rng(seed * 0x2545f4914f6cdd1dULL + 1);
  }

  void Op(ClientLog* log, GateMeter* meter) override {
    const int64_t r = rng_.UniformInt(0, kARows - 1);
    const int64_t old_key = a_[r][1].AsInt64();
    int64_t key = rng_.UniformInt(0, kKeys - 2);
    if (key >= old_key) ++key;  // uniform over the other keys
    Row next = {a_[r][0], Value{key}, a_[r][2]};
    DeltaBatch d;
    d.table = "A";
    d.updates.emplace_back(a_[r], next);
    if (!Delta(std::move(d), log, meter)) return;
    a_[r] = std::move(next);
    Expect("JV", "A.e", a_[r][2].AsInt64(), kFanout,
           [&](const Row& row) {
             return row[jv_c_].AsInt64() == key && row[jv_d_].AsInt64() == key;
           },
           log);
  }

 protected:
  Status Load() override {
    TwoTableConfig tt;
    tt.b_join_keys = kKeys;
    tt.fanout = kFanout;
    tt.b_clustered_on_d = true;
    tt.seed = kDataSeed;
    PJVM_RETURN_NOT_OK(LoadTwoTable(sys_.get(), tt));
    Rng rng(kDataSeed);
    a_init_.clear();
    for (int64_t i = 0; i < kARows; ++i) {
      a_init_.push_back(
          {Value{i}, Value{rng.UniformInt(0, kKeys - 1)}, Value{i}});
    }
    return sys_->InsertMany("A", a_init_);
  }
  std::vector<JoinViewDef> ViewDefs() const override {
    return {MakeModelView()};
  }
  Status Rewind() override {
    a_ = a_init_;
    jv_c_ = Col("JV", "A.c");
    jv_d_ = Col("JV", "B.d");
    return Status::OK();
  }

 private:
  std::vector<Row> a_init_;
  std::vector<Row> a_;
  Rng rng_{0};
  int jv_c_ = 0;
  int jv_d_ = 0;
};

/// tpcr_batch_l16: the paper's Section 3.3 setup at L=16 with JV1 and JV2.
/// Op k inserts the k%2 half of the 256 extra customers and deletes the half
/// op k-1 inserted; read-backs check an inserted key in JV1/JV2 and a
/// deleted key's absence.
class TpcrWorkload : public Workload {
 public:
  static constexpr int64_t kHalf = 128;

  const char* name() const override { return "tpcr_batch_l16"; }
  int num_nodes() const override { return 16; }
  int gate_ops() const override { return 6; }
  int setup_repeats() const override { return 3; }
  std::vector<std::string> views() const override { return {"JV1", "JV2"}; }
  void Seed(uint64_t seed) override {
    rng_ = Rng(seed * 0x2545f4914f6cdd1dULL + 2);
  }

  void Op(ClientLog* log, GateMeter* meter) override {
    const int h = static_cast<int>(op_ % 2);
    DeltaBatch d = DeltaBatch::Inserts("customer", halves_[h]);
    if (op_ > 0) d.deletes = halves_[1 - h];
    if (!Delta(std::move(d), log, meter)) return;
    ++op_;
    const int64_t j = rng_.UniformInt(0, kHalf - 1);
    const int64_t in_key = tpcr_.customers + h * kHalf + j;
    auto any = [](const Row&) { return true; };
    Expect("JV1", "c.custkey", in_key, tpcr_.orders_per_customer, any, log);
    Expect("JV2", "c.custkey", in_key,
           static_cast<size_t>(tpcr_.orders_per_customer) *
               tpcr_.lineitems_per_order,
           any, log);
    if (op_ > 1) {
      Expect("JV1", "c.custkey", tpcr_.customers + (1 - h) * kHalf + j, 0, any,
             log);
    }
  }

 protected:
  Status Load() override {
    tpcr_ = TpcrConfig{};
    tpcr_.customers = 20000;
    tpcr_.extra_customer_keys = 2 * kHalf;
    tpcr_.seed = kDataSeed;
    return LoadTpcr(sys_.get(), GenerateTpcr(tpcr_));
  }
  std::vector<JoinViewDef> ViewDefs() const override {
    return {MakeJv1(), MakeJv2()};
  }
  Status Rewind() override {
    op_ = 0;
    for (int h = 0; h < 2; ++h) {
      halves_[h].clear();
      for (int64_t i = 0; i < kHalf; ++i) {
        halves_[h].push_back(MakeDeltaCustomer(tpcr_, h * kHalf + i));
      }
    }
    return Status::OK();
  }

 private:
  TpcrConfig tpcr_;
  std::vector<Row> halves_[2];
  int64_t op_ = 0;
  Rng rng_{0};
};

// ---------------------------------------------------------------- passes

struct PassResult {
  MaintenanceMethod method = MaintenanceMethod::kNaive;
  bool traced = false;
  std::vector<double> setup_s;
  double window_s = 0;
  // Per timed window: the median and the 95th percentile of its deltas.
  std::vector<double> round_p50;
  std::vector<double> round_p95;
  ClientLog log;                  // timed windows
  ClientLog gate_log;
  GateMeter gate;
  std::string view_fp;  // after the gate prefix (untraced passes)
  Status consistent = Status::OK();
  LayerSums layers;
};

std::string ViewFingerprint(ViewManager* vm,
                            const std::vector<std::string>& names) {
  std::string all;
  for (const std::string& name : names) {
    std::vector<std::string> keys;
    for (const Row& row : vm->view(name)->Contents()) {
      keys.push_back(RowToString(row));
    }
    std::sort(keys.begin(), keys.end());
    all += name + ":";
    for (const std::string& k : keys) all += k + "\n";
  }
  return Fnv(all);
}

/// Current resident set size in MiB.
double ResidentMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident) * page / (1024.0 * 1024.0);
}

/// Confines the process, and every thread it starts later, to the last CPU
/// it may run on. Returns that CPU, or -1 if the affinity cannot be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

LayerSums DrainTracer() {
  std::vector<TraceSpan> spans = Tracer::Global().Snapshot();
  Tracer::Global().Clear();
  return AnalyzeSpans(spans);
}

/// Set-up (timed, `setup_repeats` times for an untraced pass) and the gate
/// prefix. Leaves the system live with its client stream seeded for the
/// timed windows.
Status Prepare(Workload& wl, bool traced, uint64_t seed, PassResult* out) {
  if (Tracer::Global().enabled()) {
    return Status::Internal("tracer still enabled before a pass");
  }
  const int repeats = traced ? 1 : wl.setup_repeats();
  for (int i = 0; i < repeats; ++i) {
    wl.Teardown();  // not part of the next set-up's time
    const Clock::time_point s0 = Clock::now();
    PJVM_RETURN_NOT_OK(wl.Setup(out->method, traced));
    out->setup_s.push_back(Seconds(Clock::now() - s0));
  }
  if (Tracer::Global().enabled() != traced) {
    return Status::Internal("tracer state does not match the pass");
  }
  Tracer::Global().Clear();
  wl.Seed(kDataSeed);
  for (int i = 0; i < wl.gate_ops(); ++i) wl.Op(&out->gate_log, &out->gate);
  if (!traced) out->view_fp = ViewFingerprint(wl.vm(), wl.views());
  wl.Seed(seed);
  return Status::OK();
}

/// `seconds` of the closed-loop client on the live system. A traced window
/// drains the tracer every 100 ms between operations, when the executor is
/// idle, so span memory stays bounded.
void RunWindow(Workload& wl, double seconds, PassResult* out) {
  if (out->traced) Tracer::Global().Clear();
  ClientLog round;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point drain = start + std::chrono::milliseconds(100);
  Clock::time_point now = start;
  while (now < deadline) {
    wl.Op(&round, nullptr);
    now = Clock::now();
    if (out->traced && now >= drain) {
      out->layers += DrainTracer();
      drain = now + std::chrono::milliseconds(100);
    }
  }
  out->window_s += Seconds(Clock::now() - start);
  if (out->traced) out->layers += DrainTracer();
  out->round_p50.push_back(Quantile(round.delta_us, 0.50));
  out->round_p95.push_back(Quantile(round.delta_us, 0.95));
  ClientLog& log = out->log;
  log.delta_us.insert(log.delta_us.end(), round.delta_us.begin(),
                      round.delta_us.end());
  log.attempted += round.attempted;
  log.failed += round.failed;
  if (log.first_error.empty()) log.first_error = round.first_error;
}

/// Oracle check after a timed stream, then teardown. A gate-only pass
/// replays the prefix its untraced twin already ran (the cost fingerprints
/// must match), so only timed streams pay for the check.
void Finish(Workload& wl, PassResult* out) {
  if (out->window_s > 0) out->consistent = wl.vm()->CheckAllConsistent();
  if (out->traced) {
    // The ParallelSystem constructor enabled the tracer and nothing in the
    // engine turns it off again.
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  wl.Teardown();
}

// ---------------------------------------------------------------- report

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point_l4") return std::make_unique<PointWorkload>();
  if (name == "tpcr_batch_l16") return std::make_unique<TpcrWorkload>();
  return nullptr;
}

/// Median latency of the first and last tenth of a timed stream.
std::pair<double, double> TenthMedians(const PassResult& p) {
  const std::vector<double>& v = p.log.delta_us;
  const size_t tenth = v.size() / 10;
  if (tenth == 0) return {0, 0};
  return {Median({v.begin(), v.begin() + tenth}),
          Median({v.end() - tenth, v.end()})};
}

int Run(const Options& opt) {
  // Every thread on one core: on a shared virtual host a cross-core wakeup
  // waits for the hypervisor to run an idle vCPU, which made run-to-run
  // spread several times wider than on one core (README, "Why one core").
  const int pinned_cpu = PinToOneCpu();
  if (pinned_cpu < 0) {
    std::cerr << "could not pin to one CPU; running unpinned\n";
  }
  // Untraced windows are split into this many rotating rounds per method.
  constexpr int kRounds = 10;
  // trace=0: every second goes to the untraced windows; the traced passes
  // only replay the gate prefix. trace=1: half untraced, half traced.
  const int methods = static_cast<int>(std::size(kMethods));
  const double untraced_s = (opt.trace ? 0.5 : 1.0) * opt.seconds / methods;
  const double traced_s = opt.trace ? 0.5 * opt.seconds / methods : 0.0;

  // Untraced: all three systems live at once, their windows interleaved in
  // rotating rounds so a slow stretch of the host hits every method alike.
  std::vector<std::unique_ptr<Workload>> beds;
  std::vector<PassResult> untraced(methods);
  for (int i = 0; i < methods; ++i) {
    beds.push_back(MakeWorkload(opt.workload));
    if (beds.back() == nullptr) {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    untraced[i].method = kMethods[i];
    Status st = Prepare(*beds[i], false, opt.seed, &untraced[i]);
    if (!st.ok()) {
      std::cerr << "set-up " << Tag(kMethods[i]) << ": " << st.ToString()
                << "\n";
      return 1;
    }
  }
  // Footprint of the three loaded systems, before any timed growth. Freed
  // heap goes back to the OS first, so the repeated set-ups' dead systems
  // are not counted.
  malloc_trim(0);
  const double loaded_rss_mb = ResidentMb();
  for (int r = 0; r < kRounds; ++r) {
    for (int k = 0; k < methods; ++k) {
      const int i = (r + k) % methods;
      RunWindow(*beds[i], untraced_s / kRounds, &untraced[i]);
    }
  }
  for (int i = 0; i < methods; ++i) Finish(*beds[i], &untraced[i]);
  const Workload& wl = *beds[0];

  // Traced: one system at a time.
  std::vector<PassResult> traced(methods);
  for (int i = 0; i < methods; ++i) {
    std::unique_ptr<Workload> bed = MakeWorkload(opt.workload);
    traced[i].method = kMethods[i];
    traced[i].traced = true;
    Status st = Prepare(*bed, true, opt.seed, &traced[i]);
    if (!st.ok()) {
      std::cerr << "traced set-up " << Tag(kMethods[i]) << ": " << st.ToString()
                << "\n";
      return 1;
    }
    if (traced_s > 0) RunWindow(*bed, traced_s, &traced[i]);
    Finish(*bed, &traced[i]);
  }

  // ---- gates
  std::vector<std::string> gate_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<PassResult>* passes : {&untraced, &traced}) {
    for (const PassResult& p : *passes) {
      const std::string who = std::string(Tag(p.method)) +
                              (p.traced ? " traced" : " untraced");
      for (const ClientLog* log : {&p.gate_log, &p.log}) {
        attempted += log->attempted;
        failed += log->failed;
        if (!log->first_error.empty()) {
          gate_failures.push_back(who + ": " + log->first_error);
        }
      }
      if (!p.consistent.ok()) {
        gate_failures.push_back(who + ": CheckAllConsistent: " +
                                p.consistent.ToString());
      }
      if (p.layers.incomplete_txns > 0) {
        gate_failures.push_back(
            who + ": " + std::to_string(p.layers.incomplete_txns) +
            " maintain_txn spans miss a layer span");
      }
      if (p.layers.ReconcileError() > kReconcileTolerance) {
        gate_failures.push_back(who + ": span reconciliation off by " +
                                std::to_string(p.layers.ReconcileError()));
      }
    }
  }
  for (int i = 0; i < methods; ++i) {
    if (untraced[i].gate.Fingerprint() != traced[i].gate.Fingerprint()) {
      gate_failures.push_back(std::string(Tag(kMethods[i])) +
                              ": CostTracker fingerprint differs traced vs "
                              "untraced");
    }
    if (untraced[i].view_fp != untraced[0].view_fp) {
      gate_failures.push_back(std::string(Tag(kMethods[i])) +
                              ": view fingerprint differs from naive");
    }
  }
  const bool correct = gate_failures.empty() && failed == 0;

  // ---- metrics
  std::map<std::string, double> metrics;
  std::vector<double> setups;
  for (const PassResult& p : untraced) {
    const std::string t = Tag(p.method);
    // The host's speed switches between states every few seconds. The mean
    // of the per-round medians moves smoothly with the share of time spent
    // in each state, where one median over all samples jumps between them.
    metrics["delta_us_p50." + t] =
        std::accumulate(p.round_p50.begin(), p.round_p50.end(), 0.0) /
        static_cast<double>(std::max<size_t>(p.round_p50.size(), 1));
    // A burst on the shared host that covers less than half the rounds
    // barely moves the median of the per-round tails.
    metrics["delta_us_p95." + t] = Median(p.round_p95);
    const GateMeter& g = p.gate;
    const double n = static_cast<double>(std::max<uint64_t>(g.deltas, 1));
    metrics["tw_io_per_delta." + t] = g.Total().IO(CostWeights{}) / n;
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
  }
  metrics["setup_s"] = Median(setups);
  metrics["peak_rss_mb"] = loaded_rss_mb;

  for (int i = 0; i < methods; ++i) {
    const PassResult& p = traced[i];
    const std::string t = std::string(".") + Tag(p.method);
    const LayerSums& l = p.layers;
    const double d = static_cast<double>(std::max<uint64_t>(l.deltas, 1));
    const double us = 1e-3 / d;  // ns totals -> us per delta
    metrics["view.txn_us" + t] = l.txn_ns * us;
    metrics["view.base_update_us" + t] = l.base_update_self_ns * us;
    metrics["view.structure_update_us" + t] = l.structure_update_self_ns * us;
    metrics["view.maintain_self_us" + t] = l.maintain_self_ns * us;
    metrics["view.step_us" + t] = l.step_ns * us;
    metrics["engine.dispatch_us" + t] = l.dispatch_ns * us;
    metrics["engine.tasks_per_delta" + t] = static_cast<double>(l.tasks) / d;
    metrics["storage.task_us" + t] = l.task_ns * us;
    metrics["storage.task_max_us" + t] = l.task_max_ns * us;
    const GateMeter& g = p.gate;
    const double n = static_cast<double>(std::max<uint64_t>(g.deltas, 1));
    const NodeCounters c = g.Total();
    auto per_delta = [&](uint64_t v) { return static_cast<double>(v) / n; };
    metrics["storage.searches_per_delta" + t] = per_delta(c.searches);
    metrics["storage.fetches_per_delta" + t] = per_delta(c.fetches);
    metrics["storage.inserts_per_delta" + t] = per_delta(c.inserts);
    metrics["storage.descents_per_delta" + t] = per_delta(c.descents);
    metrics["storage.rt_io_per_delta" + t] = g.rt_io / n;
    metrics["txn.commit_us" + t] = l.commit_self_ns * us;
    metrics["net.sends_per_delta" + t] = per_delta(c.sends);
    metrics["net.messages_per_delta" + t] = per_delta(g.messages);
    metrics["net.bytes_per_delta" + t] = per_delta(g.bytes);
    metrics["unattributed_us" + t] = l.UnattributedNs() * us;
    // The traced pass has one window, so its p50 is that window's median.
    const double base_p50 = metrics["delta_us_p50" + t];
    const double traced_p50 = Quantile(p.log.delta_us, 0.5);
    metrics["trace_overhead_frac" + t] =
        (base_p50 > 0 && traced_p50 > 0) ? traced_p50 / base_p50 - 1.0 : 0.0;
  }

  // ---- human-readable summary
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n",
              wl.name(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("%-6s %9s %8s %11s %11s %12s %12s %12s\n", "method", "setup_s",
              "deltas", "p50_us", "p95_us", "first10_p50", "last10_p50",
              "tw_io/delta");
  for (const PassResult& p : untraced) {
    const auto [first, last] = TenthMedians(p);
    const std::string t = Tag(p.method);
    std::printf("%-6s %9.3f %8zu %11.1f %11.1f %12.1f %12.1f %12.3f\n",
                t.c_str(), Median(p.setup_s), p.log.delta_us.size(),
                metrics["delta_us_p50." + t], metrics["delta_us_p95." + t],
                first, last, metrics["tw_io_per_delta." + t]);
  }
  for (const std::string& f : gate_failures) {
    std::printf("GATE FAILED: %s\n", f.c_str());
  }

  // ---- JSON result (last line)
  bench::JsonWriter w;
  w.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").Uint(attempted)
      .Key("failed").Uint(failed)
      .Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) w.Key(name).Num(value);
  w.EndObject().Key("report").BeginObject();
  w.Key("meta").Raw(bench::RunMetadataJson());
  w.Key("build_type").Str(PJVM_BENCH_BUILD_TYPE)
      .Key("workload").Str(wl.name())
      .Key("seed").Uint(opt.seed)
      .Key("seconds").Num(opt.seconds)
      .Key("trace").Bool(opt.trace)
      .Key("pinned_cpu").Int(pinned_cpu)
      .Key("client_threads").Int(1)
      .Key("executor_threads").Int(wl.num_nodes())
      .Key("rounds").Int(kRounds)
      .Key("gate_deltas").Int(wl.gate_ops())
      .Key("reconcile_tolerance").Num(kReconcileTolerance)
      .Key("passes").BeginArray();
  for (const std::vector<PassResult>* passes : {&untraced, &traced}) {
    for (const PassResult& p : *passes) {
      const auto [first, last] = TenthMedians(p);
      w.BeginObject()
          .Key("method").Str(Tag(p.method))
          .Key("traced").Bool(p.traced)
          .Key("setup_s").Num(Median(p.setup_s))
          .Key("window_s").Num(p.window_s)
          .Key("delta_samples").Uint(p.log.delta_us.size())
          .Key("first_tenth_p50_us").Num(first)
          .Key("last_tenth_p50_us").Num(last)
          .Key("round_p50_us").BeginArray();
      for (double v : p.round_p50) w.Num(v);
      w.EndArray().Key("round_p95_us").BeginArray();
      for (double v : p.round_p95) w.Num(v);
      w.EndArray()
          .Key("failed").Uint(p.log.failed + p.gate_log.failed)
          .Key("cost_fingerprint").Str(p.gate.Fingerprint())
          .Key("view_fingerprint").Str(p.view_fp)
          .Key("traced_deltas").Uint(p.layers.deltas)
          .Key("reconcile_error").Num(p.layers.ReconcileError())
          .EndObject();
    }
  }
  w.EndArray().Key("gate_failures").BeginArray();
  for (const std::string& f : gate_failures) w.Str(f);
  w.EndArray().EndObject().EndObject();
  std::cout << w.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace pjvm::perfbench

int main(int argc, char** argv) {
  pjvm::perfbench::Options opt;
  if (!pjvm::perfbench::ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: pjvm_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  if (std::string(PJVM_BENCH_BUILD_TYPE) == "Debug") {
    std::cerr << "refusing to time a Debug build\n";
    return 2;
  }
  if (const char* env = std::getenv("PJVM_TRACE"); env != nullptr) {
    // The untraced passes must really run with tracing off.
    std::cerr << "refusing to run with PJVM_TRACE set\n";
    return 2;
  }
  return pjvm::perfbench::Run(opt);
}
