#ifndef PJVM_OBS_METRICS_REGISTRY_H_
#define PJVM_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pjvm {

/// \brief One label dimension of a metric series ("tenant" -> "t3").
struct MetricLabel {
  std::string key;
  std::string value;
};

/// Escapes a label value for Prometheus text exposition: backslash, double
/// quote, and newline become \\, \", and \n.
std::string EscapeLabelValue(const std::string& v);

/// Renders `base{k1="v1",k2="v2"}` with escaped values — the canonical series
/// name for a labeled family member. Call sites that build label sets by hand
/// must escape values themselves (or, better, go through this).
std::string LabeledName(const std::string& base,
                        const std::vector<MetricLabel>& labels);

/// \brief Merged, non-atomic view of a latency histogram: what callers
/// aggregate across nodes/runs and compute quantiles from.
///
/// Buckets are log2-spaced: bucket 0 holds the value 0, bucket i (i >= 1)
/// holds values in [2^(i-1), 2^i - 1]. Any two HistogramData share the same
/// layout, so Merge is element-wise addition — per-node or per-run
/// histograms combine exactly (count/sum are lossless; quantiles are
/// bucket-resolution approximations clamped to the merged [min, max]).
struct HistogramData {
  static constexpr int kNumBuckets = 65;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< Valid only when count > 0.
  uint64_t max = 0;  ///< Valid only when count > 0.

  /// Bucket index a value lands in.
  static int BucketIndex(uint64_t v);
  /// Inclusive value range [BucketLo(i), BucketHi(i)] of bucket i.
  static uint64_t BucketLo(int i);
  static uint64_t BucketHi(int i);

  void Add(uint64_t v);
  void Merge(const HistogramData& other);

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
  /// Quantile q in [0, 1]: linear interpolation inside the containing
  /// bucket, clamped to the observed [min, max]. 0 when empty; exact when
  /// all recorded values were equal.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
};

/// \brief Thread-safe log-bucketed latency histogram (lock-free: relaxed
/// atomic bucket counts; min/max via CAS).
class LatencyHistogram {
 public:
  void Record(uint64_t v);
  HistogramData Snapshot() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, HistogramData::kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// \brief Time-windowed rotating latency histogram: a ring of per-window
/// LatencyHistograms plus an all-time cumulative one.
///
/// Record(v, now_ns) lands `v` in the window containing `now_ns` (windows
/// are aligned to a fixed `window_ns` grid from time 0). The ring retains
/// the most recent `num_windows` windows; older ones are overwritten as time
/// advances, so quantiles are reportable *per window* — warmup and steady
/// state stay distinguishable instead of blurring into one cumulative
/// histogram. The cumulative histogram never rotates.
///
/// Thread-safety: Record is lock-free (per-window LatencyHistograms plus an
/// atomic epoch per slot). A Record racing a slot rotation may land in the
/// freshly-reset window — at most a few boundary samples shift one window,
/// which is below bucket resolution for any steady workload.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(uint64_t window_ns = 1'000'000'000,
                             int num_windows = 16);

  /// Records `v` into the window containing `now_ns` (monotonic clock of the
  /// caller's choosing; all Records to one histogram must share a timebase).
  void Record(uint64_t v, uint64_t now_ns);

  /// One retained window: its grid index, start time, and merged data.
  struct Window {
    uint64_t index = 0;     ///< now_ns / window_ns at recording time.
    uint64_t start_ns = 0;  ///< index * window_ns.
    HistogramData data;
  };

  /// The retained windows, oldest first. Empty slots (never recorded into,
  /// or overwritten by a later epoch) are omitted.
  std::vector<Window> Windows() const;

  /// All-time merge across every window ever recorded (not just retained).
  HistogramData Cumulative() const;

  uint64_t window_ns() const { return window_ns_; }
  int num_windows() const { return static_cast<int>(slots_.size()); }

  void Reset();

 private:
  struct Slot {
    /// Grid index currently stored here; kEmpty when never used, kClaimed
    /// while a recorder resets it for a new epoch.
    std::atomic<uint64_t> epoch{kEmpty};
    LatencyHistogram hist;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kClaimed = kEmpty - 1;

  uint64_t window_ns_;
  std::vector<std::unique_ptr<Slot>> slots_;
  LatencyHistogram cumulative_;
};

/// \brief Monotonic counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Last-write-wins gauge.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// \brief Named metrics with Prometheus text exposition and a JSON dump.
///
/// Metric handles are stable for the registry's lifetime; lookup takes a
/// mutex (cold path — call sites cache the returned pointer), updates on the
/// handle are lock-free. Names may carry Prometheus labels inline:
/// `pjvm_maintain_ns{method="NAIVE"}` — exposition splices histogram `le`
/// labels into the given label set.
class MetricsRegistry {
 public:
  /// The process-wide registry the engine records into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LatencyHistogram* histogram(const std::string& name);
  /// Windowed histogram: `window_ns`/`num_windows` apply only on first
  /// registration of `name`; later lookups return the existing instance.
  WindowedHistogram* windowed(const std::string& name,
                              uint64_t window_ns = 1'000'000'000,
                              int num_windows = 16);

  /// Labeled-family conveniences: handle for `base` + `labels` (escaped).
  Counter* counter(const std::string& base,
                   const std::vector<MetricLabel>& labels) {
    return counter(LabeledName(base, labels));
  }
  LatencyHistogram* histogram(const std::string& base,
                              const std::vector<MetricLabel>& labels) {
    return histogram(LabeledName(base, labels));
  }
  WindowedHistogram* windowed(const std::string& base,
                              const std::vector<MetricLabel>& labels,
                              uint64_t window_ns = 1'000'000'000,
                              int num_windows = 16) {
    return windowed(LabeledName(base, labels), window_ns, num_windows);
  }

  /// Help text emitted as the family's `# HELP` line. Unset families get a
  /// placeholder so every family still exposes a HELP line.
  void SetHelp(const std::string& base, const std::string& help);

  /// Prometheus text exposition format. Series are grouped by family (base
  /// name) with exactly one `# HELP`/`# TYPE` pair per family, histogram
  /// buckets carry cumulative counts with a `+Inf` bound, and label values
  /// written through LabeledName are escaped — output parses under a real
  /// scraper. Windowed histograms expose their cumulative merge.
  std::string PrometheusText() const;
  /// One JSON object: counters/gauges verbatim, histograms as
  /// {count, sum, mean, min, max, p50, p95, p99}, windowed histograms as
  /// {window_ns, cumulative, windows: [{index, start_ns, count, p50, ...}]}.
  std::string ToJson() const;

  /// Zeroes every metric (registrations and handles survive).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> windowed_;
  std::map<std::string, std::string> help_;
};

/// \brief Ambient attribution for the work the current thread is doing:
/// which tenant, against which view, in which operation class.
///
/// Multi-tenant drivers (workload/openloop.h) set a scope around each
/// dispatched operation; the engine and view layers read it when they emit
/// spans and metrics, so per-tenant series exist without threading tenant
/// arguments through every engine call. Empty fields mean "untagged".
struct WorkloadTag {
  std::string tenant;
  std::string view;
  std::string op_class;
};

/// \brief RAII thread-local WorkloadTag scope (nestable; inner wins).
class WorkloadTagScope {
 public:
  explicit WorkloadTagScope(WorkloadTag tag);
  ~WorkloadTagScope();

  WorkloadTagScope(const WorkloadTagScope&) = delete;
  WorkloadTagScope& operator=(const WorkloadTagScope&) = delete;

  /// The innermost tag on this thread, or nullptr when untagged.
  static const WorkloadTag* Current();

 private:
  WorkloadTag tag_;
  const WorkloadTag* prev_;
};

}  // namespace pjvm

#endif  // PJVM_OBS_METRICS_REGISTRY_H_
