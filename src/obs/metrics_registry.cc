#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <thread>

namespace pjvm {

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string LabeledName(const std::string& base,
                        const std::vector<MetricLabel>& labels) {
  if (labels.empty()) return base;
  std::string out = base + "{";
  const char* sep = "";
  for (const MetricLabel& label : labels) {
    out += sep;
    out += label.key + "=\"" + EscapeLabelValue(label.value) + "\"";
    sep = ",";
  }
  out += "}";
  return out;
}

int HistogramData::BucketIndex(uint64_t v) {
  if (v == 0) return 0;
  return 64 - std::countl_zero(v);  // floor(log2(v)) + 1, in [1, 64]
}

uint64_t HistogramData::BucketLo(int i) {
  if (i <= 0) return 0;
  return uint64_t{1} << (i - 1);
}

uint64_t HistogramData::BucketHi(int i) {
  if (i <= 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

void HistogramData::Add(uint64_t v) {
  ++buckets[BucketIndex(v)];
  ++count;
  sum += v;
  if (count == 1) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
}

void HistogramData::Merge(const HistogramData& other) {
  if (other.count == 0) return;
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(count - 1);
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(cum + buckets[i]) > rank) {
      double within = (rank - static_cast<double>(cum)) /
                      static_cast<double>(buckets[i]);
      double lo = static_cast<double>(BucketLo(i));
      double hi = static_cast<double>(BucketHi(i));
      double v = lo + within * (hi - lo);
      return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
    }
    cum += buckets[i];
  }
  return static_cast<double>(max);
}

void LatencyHistogram::Record(uint64_t v) {
  buckets_[HistogramData::BucketIndex(v)].fetch_add(1,
                                                    std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramData LatencyHistogram::Snapshot() const {
  HistogramData d;
  for (int i = 0; i < HistogramData::kNumBuckets; ++i) {
    d.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  d.count = count_.load(std::memory_order_relaxed);
  d.sum = sum_.load(std::memory_order_relaxed);
  d.min = d.count > 0 ? min_.load(std::memory_order_relaxed) : 0;
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

WindowedHistogram::WindowedHistogram(uint64_t window_ns, int num_windows)
    : window_ns_(window_ns == 0 ? 1 : window_ns) {
  slots_.reserve(std::max(1, num_windows));
  for (int i = 0; i < std::max(1, num_windows); ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void WindowedHistogram::Record(uint64_t v, uint64_t now_ns) {
  const uint64_t epoch = now_ns / window_ns_;
  Slot& slot = *slots_[epoch % slots_.size()];
  uint64_t cur = slot.epoch.load(std::memory_order_acquire);
  while (cur != epoch) {
    if (cur == kClaimed) {  // another recorder is resetting the slot
      std::this_thread::yield();
      cur = slot.epoch.load(std::memory_order_acquire);
      continue;
    }
    // The ring only moves forward: a late recorder whose slot was already
    // claimed by a newer epoch records into that newer window rather than
    // resurrecting the old one.
    if (cur != kEmpty && cur > epoch) break;
    // Claim, reset, then publish: a recorder that sees the new epoch can
    // never have its record wiped by the reset.
    if (slot.epoch.compare_exchange_weak(cur, kClaimed,
                                         std::memory_order_acq_rel)) {
      slot.hist.Reset();
      slot.epoch.store(epoch, std::memory_order_release);
      break;
    }
  }
  slot.hist.Record(v);
  cumulative_.Record(v);
}

std::vector<WindowedHistogram::Window> WindowedHistogram::Windows() const {
  std::vector<Window> out;
  for (const auto& slot : slots_) {
    uint64_t epoch = slot->epoch.load(std::memory_order_acquire);
    if (epoch == kEmpty || epoch == kClaimed) continue;
    Window w;
    w.index = epoch;
    w.start_ns = epoch * window_ns_;
    w.data = slot->hist.Snapshot();
    if (w.data.count == 0) continue;
    out.push_back(std::move(w));
  }
  std::sort(out.begin(), out.end(),
            [](const Window& a, const Window& b) { return a.index < b.index; });
  return out;
}

HistogramData WindowedHistogram::Cumulative() const {
  return cumulative_.Snapshot();
}

void WindowedHistogram::Reset() {
  for (auto& slot : slots_) {
    slot->epoch.store(kEmpty, std::memory_order_release);
    slot->hist.Reset();
  }
  cumulative_.Reset();
}

namespace {

thread_local const WorkloadTag* tl_workload_tag = nullptr;

}  // namespace

WorkloadTagScope::WorkloadTagScope(WorkloadTag tag)
    : tag_(std::move(tag)), prev_(tl_workload_tag) {
  tl_workload_tag = &tag_;
}

WorkloadTagScope::~WorkloadTagScope() { tl_workload_tag = prev_; }

const WorkloadTag* WorkloadTagScope::Current() { return tl_workload_tag; }

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

WindowedHistogram* MetricsRegistry::windowed(const std::string& name,
                                             uint64_t window_ns,
                                             int num_windows) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = windowed_[name];
  if (slot == nullptr) {
    slot = std::make_unique<WindowedHistogram>(window_ns, num_windows);
  }
  return slot.get();
}

void MetricsRegistry::SetHelp(const std::string& base,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[base] = help;
}

namespace {

/// Splits "base{a="b"}" into ("base", "a=\"b\"").
std::pair<std::string, std::string> SplitLabels(const std::string& name) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  std::string labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {name.substr(0, brace), labels};
}

/// Escapes a metric name for use as a JSON object key: labeled series names
/// contain literal double quotes (`a="b"`).
std::string JsonKey(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string WithLabels(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  std::string all = labels;
  if (!extra.empty()) {
    if (!all.empty()) all += ",";
    all += extra;
  }
  if (all.empty()) return base;
  return base + "{" + all + "}";
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  // The exposition format requires all lines of one metric family to be
  // contiguous, with a single HELP/TYPE header. Lexicographic iteration over
  // the raw series names does not guarantee that (`foo` < `foo_bar` <
  // `foo{...}` interleaves two families), so series are grouped by base name
  // first.
  struct Family {
    const char* type = "untyped";
    std::vector<std::string> lines;
  };
  std::map<std::string, Family> families;

  auto render_histogram = [](const std::string& base,
                             const std::string& labels,
                             const HistogramData& d,
                             std::vector<std::string>* lines) {
    uint64_t cum = 0;
    for (int i = 0; i < HistogramData::kNumBuckets; ++i) {
      if (d.buckets[i] == 0) continue;
      cum += d.buckets[i];
      lines->push_back(
          WithLabels(base + "_bucket", labels,
                     "le=\"" + std::to_string(HistogramData::BucketHi(i)) +
                         "\"") +
          " " + std::to_string(cum));
    }
    lines->push_back(WithLabels(base + "_bucket", labels, "le=\"+Inf\"") + " " +
                     std::to_string(d.count));
    lines->push_back(WithLabels(base + "_sum", labels) + " " +
                     std::to_string(d.sum));
    lines->push_back(WithLabels(base + "_count", labels) + " " +
                     std::to_string(d.count));
  };

  for (const auto& [name, counter] : counters_) {
    auto [base, labels] = SplitLabels(name);
    Family& fam = families[base];
    fam.type = "counter";
    fam.lines.push_back(WithLabels(base, labels) + " " +
                        std::to_string(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    auto [base, labels] = SplitLabels(name);
    Family& fam = families[base];
    fam.type = "gauge";
    std::ostringstream v;
    v.precision(12);
    v << gauge->value();
    fam.lines.push_back(WithLabels(base, labels) + " " + v.str());
  }
  for (const auto& [name, hist] : histograms_) {
    auto [base, labels] = SplitLabels(name);
    Family& fam = families[base];
    fam.type = "histogram";
    render_histogram(base, labels, hist->Snapshot(), &fam.lines);
  }
  // Windowed histograms expose their all-time cumulative merge; per-window
  // quantiles live in ToJson (Prometheus derives windows by scraping).
  for (const auto& [name, wh] : windowed_) {
    auto [base, labels] = SplitLabels(name);
    Family& fam = families[base];
    fam.type = "histogram";
    render_histogram(base, labels, wh->Cumulative(), &fam.lines);
  }

  std::ostringstream os;
  for (const auto& [base, fam] : families) {
    auto help = help_.find(base);
    // HELP text is free-form but must escape backslash and newline.
    std::string help_text =
        help != help_.end() ? help->second : "pjvm metric " + base;
    std::string escaped;
    for (char c : help_text) {
      if (c == '\\') {
        escaped += "\\\\";
      } else if (c == '\n') {
        escaped += "\\n";
      } else {
        escaped += c;
      }
    }
    os << "# HELP " << base << " " << escaped << "\n";
    os << "# TYPE " << base << " " << fam.type << "\n";
    for (const std::string& line : fam.lines) os << line << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, counter] : counters_) {
    os << sep << "\n    " << JsonKey(name) << ": " << counter->value();
    sep = ",";
  }
  os << "\n  },\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, gauge] : gauges_) {
    os << sep << "\n    " << JsonKey(name) << ": " << gauge->value();
    sep = ",";
  }
  os << "\n  },\n  \"histograms\": {";
  sep = "";
  auto hist_json = [](std::ostringstream& o, const HistogramData& d) {
    o << "{\"count\": " << d.count << ", \"sum\": " << d.sum
      << ", \"mean\": " << d.Mean() << ", \"min\": " << d.min
      << ", \"max\": " << d.max << ", \"p50\": " << d.P50()
      << ", \"p95\": " << d.P95() << ", \"p99\": " << d.P99() << "}";
  };
  for (const auto& [name, hist] : histograms_) {
    os << sep << "\n    " << JsonKey(name) << ": ";
    hist_json(os, hist->Snapshot());
    sep = ",";
  }
  os << "\n  },\n  \"windowed\": {";
  sep = "";
  for (const auto& [name, wh] : windowed_) {
    os << sep << "\n    " << JsonKey(name) << ": {\"window_ns\": "
       << wh->window_ns() << ", \"cumulative\": ";
    hist_json(os, wh->Cumulative());
    os << ", \"windows\": [";
    const char* wsep = "";
    for (const WindowedHistogram::Window& w : wh->Windows()) {
      os << wsep << "{\"index\": " << w.index
         << ", \"start_ns\": " << w.start_ns;
      os << ", \"data\": ";
      hist_json(os, w.data);
      os << "}";
      wsep = ",";
    }
    os << "]}";
    sep = ",";
  }
  os << "\n  }\n}\n";
  return os.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, w] : windowed_) w->Reset();
}

}  // namespace pjvm
