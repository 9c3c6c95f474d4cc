#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {
namespace {

// ------------------------------------------------------------ HistogramData

TEST(HistogramDataTest, EmptyIsAllZero) {
  HistogramData d;
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_EQ(d.Mean(), 0.0);
  EXPECT_EQ(d.P50(), 0.0);
  EXPECT_EQ(d.P95(), 0.0);
  EXPECT_EQ(d.P99(), 0.0);
  EXPECT_EQ(d.Quantile(0.0), 0.0);
  EXPECT_EQ(d.Quantile(1.0), 0.0);
}

TEST(HistogramDataTest, SingleValueIsExactAtEveryQuantile) {
  HistogramData d;
  d.Add(37);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.sum, 37u);
  EXPECT_EQ(d.min, 37u);
  EXPECT_EQ(d.max, 37u);
  // The clamp to [min, max] makes a single value exact despite the
  // bucket's [32, 63] resolution.
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(d.P50(), 37.0);
  EXPECT_DOUBLE_EQ(d.P99(), 37.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 37.0);
}

TEST(HistogramDataTest, RepeatedEqualValuesStayExact) {
  HistogramData d;
  for (int i = 0; i < 1000; ++i) d.Add(100);
  EXPECT_DOUBLE_EQ(d.P50(), 100.0);
  EXPECT_DOUBLE_EQ(d.P95(), 100.0);
  EXPECT_DOUBLE_EQ(d.P99(), 100.0);
}

TEST(HistogramDataTest, BucketLayout) {
  // Bucket 0 holds only the value 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(HistogramData::BucketIndex(0), 0);
  EXPECT_EQ(HistogramData::BucketIndex(1), 1);
  EXPECT_EQ(HistogramData::BucketIndex(2), 2);
  EXPECT_EQ(HistogramData::BucketIndex(3), 2);
  EXPECT_EQ(HistogramData::BucketIndex(4), 3);
  EXPECT_EQ(HistogramData::BucketIndex(UINT64_MAX), 64);
  for (int i = 1; i < HistogramData::kNumBuckets; ++i) {
    EXPECT_EQ(HistogramData::BucketIndex(HistogramData::BucketLo(i)), i);
    EXPECT_EQ(HistogramData::BucketIndex(HistogramData::BucketHi(i)), i);
  }
  EXPECT_EQ(HistogramData::BucketHi(1) + 1, HistogramData::BucketLo(2));
}

TEST(HistogramDataTest, QuantilesMonotoneAndBounded) {
  HistogramData d;
  for (uint64_t v = 1; v <= 1000; ++v) d.Add(v);
  double p50 = d.P50(), p95 = d.P95(), p99 = d.P99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, static_cast<double>(d.min));
  EXPECT_LE(p99, static_cast<double>(d.max));
  // Log buckets are coarse, but the median of 1..1000 must land in the
  // right bucket: [256, 1000].
  EXPECT_GE(p50, 256.0);
}

TEST(HistogramDataTest, MergeIsExactForCountSumMinMax) {
  HistogramData a, b;
  for (uint64_t v : {1u, 5u, 9u}) a.Add(v);
  for (uint64_t v : {100u, 200u}) b.Add(v);
  HistogramData merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.sum, 315u);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 200u);
  // Element-wise bucket addition: merging equals recording everything into
  // one histogram.
  HistogramData direct;
  for (uint64_t v : {1u, 5u, 9u, 100u, 200u}) direct.Add(v);
  EXPECT_EQ(merged.buckets, direct.buckets);
  EXPECT_DOUBLE_EQ(merged.P50(), direct.P50());
}

TEST(HistogramDataTest, MergeWithEmptyIsIdentityBothWays) {
  HistogramData a, empty;
  a.Add(42);
  HistogramData m1 = a;
  m1.Merge(empty);
  EXPECT_EQ(m1.count, 1u);
  EXPECT_EQ(m1.min, 42u);
  HistogramData m2 = empty;
  m2.Merge(a);
  EXPECT_EQ(m2.count, 1u);
  EXPECT_EQ(m2.min, 42u);
  EXPECT_EQ(m2.max, 42u);
}

// --------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramData d = hist.Snapshot();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(d.count, kTotal);
  EXPECT_EQ(d.sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(d.min, 0u);
  EXPECT_EQ(d.max, kTotal - 1);
}

TEST(LatencyHistogramTest, ResetZeroes) {
  LatencyHistogram hist;
  hist.Record(7);
  hist.Reset();
  HistogramData d = hist.Snapshot();
  EXPECT_EQ(d.count, 0u);
  hist.Record(3);
  d = hist.Snapshot();
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.min, 3u);
  EXPECT_EQ(d.max, 3u);
}

// ----------------------------------------- Quantile error bounds and merges

TEST(HistogramDataTest, QuantileRelativeErrorBoundedByBucketWidth) {
  // Bucket i holds [2^(i-1), 2^i - 1]: any point inside is within 2x of any
  // other. With interpolation clamped to the bucket, the reported quantile
  // can therefore be off from the exact order statistic by at most 2x in
  // either direction. Check against exact quantiles of a deterministic
  // pseudo-random sample.
  HistogramData d;
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t v = 1 + x % 1'000'000;
    values.push_back(v);
    d.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    double exact = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    double approx = d.Quantile(q);
    EXPECT_GE(approx, exact / 2.0) << "q=" << q;
    EXPECT_LE(approx, exact * 2.0) << "q=" << q;
  }
}

TEST(HistogramDataTest, MergeIsAssociativeAndCommutativeBitEqual) {
  // Merge is element-wise addition, so any merge tree over the same parts
  // must produce identical buckets/count/sum/min/max — and therefore
  // bit-equal quantiles. This is what makes per-thread histograms safe to
  // combine in whatever order workers finish.
  HistogramData parts[3];
  uint64_t x = 2463534242;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 1000; ++i) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      parts[p].Add(x % (1u << (10 + 4 * p)));
    }
  }
  HistogramData left = parts[0];   // (a + b) + c
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  HistogramData right = parts[1];  // a + (b + c)
  right.Merge(parts[2]);
  HistogramData right2 = parts[0];
  right2.Merge(right);
  HistogramData swapped = parts[2];  // c + b + a
  swapped.Merge(parts[1]);
  swapped.Merge(parts[0]);
  for (const HistogramData* m : {&right2, &swapped}) {
    EXPECT_EQ(left.buckets, m->buckets);
    EXPECT_EQ(left.count, m->count);
    EXPECT_EQ(left.sum, m->sum);
    EXPECT_EQ(left.min, m->min);
    EXPECT_EQ(left.max, m->max);
    EXPECT_EQ(left.P50(), m->P50());    // bit-equal, not just approximate
    EXPECT_EQ(left.P99(), m->P99());
  }
}

TEST(LatencyHistogramTest, CrossThreadSnapshotsMergeToDirectRecording) {
  // Four threads record disjoint ranges into their own histograms; merging
  // the snapshots (in any order) equals recording everything into one.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  LatencyHistogram per_thread[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      for (int i = 0; i < kPerThread; ++i) {
        per_thread[t].Record(static_cast<uint64_t>(t * kPerThread + i) * 31);
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramData direct;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      direct.Add(static_cast<uint64_t>(t * kPerThread + i) * 31);
    }
  }
  HistogramData forward, backward;
  for (int t = 0; t < kThreads; ++t) forward.Merge(per_thread[t].Snapshot());
  for (int t = kThreads - 1; t >= 0; --t) {
    backward.Merge(per_thread[t].Snapshot());
  }
  EXPECT_EQ(forward.buckets, direct.buckets);
  EXPECT_EQ(backward.buckets, direct.buckets);
  EXPECT_EQ(forward.count, direct.count);
  EXPECT_EQ(forward.sum, direct.sum);
  EXPECT_EQ(forward.min, direct.min);
  EXPECT_EQ(forward.max, direct.max);
  EXPECT_EQ(forward.P99(), backward.P99());
}

// -------------------------------------------------------- WindowedHistogram

TEST(WindowedHistogramTest, RecordsLandInTheirTimeWindow) {
  WindowedHistogram wh(/*window_ns=*/1000, /*num_windows=*/8);
  wh.Record(100, 500);    // window 0
  wh.Record(200, 999);    // window 0
  wh.Record(5000, 1500);  // window 1
  auto windows = wh.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[0].start_ns, 0u);
  EXPECT_EQ(windows[0].data.count, 2u);
  EXPECT_EQ(windows[1].index, 1u);
  EXPECT_EQ(windows[1].start_ns, 1000u);
  EXPECT_EQ(windows[1].data.count, 1u);
  // Warmup (window 0) and steady state (window 1) stay distinguishable.
  EXPECT_LT(windows[0].data.P50(), windows[1].data.P50());
  EXPECT_EQ(wh.Cumulative().count, 3u);
}

TEST(WindowedHistogramTest, RingEvictsOldestButCumulativeKeepsAll) {
  WindowedHistogram wh(/*window_ns=*/100, /*num_windows=*/4);
  for (uint64_t w = 0; w < 10; ++w) {
    wh.Record(w + 1, w * 100 + 50);
  }
  auto windows = wh.Windows();
  ASSERT_EQ(windows.size(), 4u);  // only the most recent 4 retained
  EXPECT_EQ(windows.front().index, 6u);
  EXPECT_EQ(windows.back().index, 9u);
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_LT(windows[i - 1].index, windows[i].index);  // oldest first
  }
  HistogramData all = wh.Cumulative();
  EXPECT_EQ(all.count, 10u);  // evicted windows still counted here
  EXPECT_EQ(all.min, 1u);
  EXPECT_EQ(all.max, 10u);
}

TEST(WindowedHistogramTest, SparseWindowsSkipEmptySlots) {
  WindowedHistogram wh(/*window_ns=*/100, /*num_windows=*/8);
  wh.Record(1, 50);     // window 0
  wh.Record(2, 650);    // window 6: windows 1..5 never recorded
  auto windows = wh.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].index, 0u);
  EXPECT_EQ(windows[1].index, 6u);
}

TEST(WindowedHistogramTest, ResetClearsWindowsAndCumulative) {
  WindowedHistogram wh(/*window_ns=*/100, /*num_windows=*/4);
  wh.Record(9, 10);
  wh.Reset();
  EXPECT_TRUE(wh.Windows().empty());
  EXPECT_EQ(wh.Cumulative().count, 0u);
  wh.Record(3, 250);
  ASSERT_EQ(wh.Windows().size(), 1u);
  EXPECT_EQ(wh.Windows()[0].index, 2u);
}

TEST(WindowedHistogramTest, ConcurrentOpenersOfAWindowLoseNoRecord) {
  // Several recorders open each fresh window at once. The one that claims
  // the slot resets it; a record another thread adds in the meantime must
  // survive that reset.
  constexpr int kThreads = 4;
  constexpr int kWindows = 1024;
  WindowedHistogram wh(/*window_ns=*/100, kWindows);
  // A spinning barrier per window keeps the threads in lockstep, so every
  // window's first records race.
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int w = 0; w < kWindows; ++w) {
        arrived.fetch_add(1);
        while (arrived.load() < (w + 1) * kThreads) std::this_thread::yield();
        wh.Record(1, static_cast<uint64_t>(w) * 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t windowed = 0;
  for (const auto& w : wh.Windows()) windowed += w.data.count;
  EXPECT_EQ(windowed, uint64_t{kThreads} * kWindows);
  EXPECT_EQ(wh.Cumulative().count, uint64_t{kThreads} * kWindows);
}

// ------------------------------------------------- Label escaping and names

TEST(LabeledNameTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  std::string name = LabeledName(
      "pjvm_slo_latency_ns",
      {{"tenant", "t\"0\""}, {"view", "JV\\x"}, {"op", "line\none"}});
  EXPECT_EQ(name,
            "pjvm_slo_latency_ns{tenant=\"t\\\"0\\\"\",view=\"JV\\\\x\","
            "op=\"line\\none\"}");
}

TEST(LabeledNameTest, NoLabelsIsBareBase) {
  EXPECT_EQ(LabeledName("pjvm_x", {}), "pjvm_x");
}

// ------------------------------------ Prometheus exposition compliance pass

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.counter("txns");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(reg.counter("txns"), c);  // same handle on re-lookup
  EXPECT_EQ(reg.counter("txns")->value(), 5u);
  reg.gauge("depth")->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth")->value(), 2.5);
  reg.histogram("lat")->Record(8);
  EXPECT_EQ(reg.histogram("lat")->Snapshot().count, 1u);
}

TEST(MetricsRegistryTest, PrometheusTextSplicesLabels) {
  MetricsRegistry reg;
  reg.counter("pjvm_txns_total{method=\"NAIVE\"}")->Increment(3);
  reg.histogram("pjvm_lat_ns{method=\"AUX\"}")->Record(5);
  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE pjvm_txns_total counter"), std::string::npos);
  EXPECT_NE(text.find("pjvm_txns_total{method=\"NAIVE\"} 3"),
            std::string::npos);
  // Histogram `le` labels merge with the metric's own labels.
  EXPECT_NE(text.find("pjvm_lat_ns_bucket{method=\"AUX\",le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pjvm_lat_ns_bucket{method=\"AUX\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pjvm_lat_ns_sum{method=\"AUX\"} 5"), std::string::npos);
  EXPECT_NE(text.find("pjvm_lat_ns_count{method=\"AUX\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ResetClearsValuesButKeepsHandles) {
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  c->Increment(9);
  reg.histogram("h")->Record(4);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.counter("n"), c);
  EXPECT_EQ(reg.histogram("h")->Snapshot().count, 0u);
}

// ---------------------------------------- CostTracker snapshots under load

TEST(NodeCountersTest, DiffCoversEveryField) {
  NodeCounters after;
  after.searches = 10;
  after.fetches = 20;
  after.inserts = 30;
  after.sends = 40;
  after.bytes_sent = 50;
  after.base_writes = 6;
  after.structure_writes = 7;
  after.view_writes = 8;
  NodeCounters before;
  before.searches = 1;
  before.fetches = 2;
  before.inserts = 3;
  before.sends = 4;
  before.bytes_sent = 5;
  before.base_writes = 1;
  before.structure_writes = 2;
  before.view_writes = 3;
  NodeCounters d = after - before;
  EXPECT_EQ(d.searches, 9u);
  EXPECT_EQ(d.fetches, 18u);
  EXPECT_EQ(d.inserts, 27u);
  EXPECT_EQ(d.sends, 36u);
  EXPECT_EQ(d.bytes_sent, 45u);
  EXPECT_EQ(d.base_writes, 5u);
  EXPECT_EQ(d.structure_writes, 5u);
  EXPECT_EQ(d.view_writes, 5u);
}

TEST(CostTrackerTest, SnapshotDiffIsExactUnderConcurrentCharging) {
  constexpr int kNodes = 4;
  constexpr int kRounds = 5000;
  CostTracker tracker(kNodes);
  // Pre-existing charges the diff must subtract away.
  tracker.ChargeSearch(0, 100);
  tracker.ChargeWrite(2, CostTracker::WriteKind::kView);
  std::vector<NodeCounters> before = tracker.Snapshot();

  std::vector<std::thread> threads;
  for (int n = 0; n < kNodes; ++n) {
    threads.emplace_back([&tracker, n] {
      for (int i = 0; i < kRounds; ++i) {
        tracker.ChargeSearch(n);
        tracker.ChargeFetch(n, 2);
        tracker.ChargeWrite(n, CostTracker::WriteKind::kStructure);
        tracker.ChargeSend(n, 16);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<NodeCounters> after = tracker.Snapshot();
  ASSERT_EQ(before.size(), static_cast<size_t>(kNodes));
  ASSERT_EQ(after.size(), static_cast<size_t>(kNodes));
  for (int n = 0; n < kNodes; ++n) {
    NodeCounters d = after[n] - before[n];
    EXPECT_EQ(d.searches, static_cast<uint64_t>(kRounds)) << "node " << n;
    EXPECT_EQ(d.fetches, static_cast<uint64_t>(2 * kRounds));
    EXPECT_EQ(d.inserts, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(d.structure_writes, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(d.base_writes, 0u);
    EXPECT_EQ(d.view_writes, 0u);
    EXPECT_EQ(d.sends, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(d.bytes_sent, static_cast<uint64_t>(16 * kRounds));
  }
}

// ------------------------------------------------------------------ Tracer

/// The process-global tracer carries state across tests: each test clears
/// recorded spans up front (quiescent here) and disables tracing on exit.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TracerTest, DisabledSpanGuardRecordsNothing) {
  size_t before = Tracer::Global().Snapshot().size();
  {
    SpanGuard span("noop", "test");
    span.set_detail("ignored");
  }
  TraceInstant("noop", "test", 0, 0, "");
  EXPECT_EQ(Tracer::Global().Snapshot().size(), before);
}

TEST_F(TracerTest, SpansNestAndCaptureCostDeltas) {
  Tracer::Global().Enable();
  CostTracker cost(2);
  cost.ChargeSearch(1, 50);  // pre-span charge the delta must exclude
  {
    SpanGuard outer("txn", "test");
    {
      SpanGuard inner("probe", "test", /*node=*/1, &cost, "NAIVE");
      cost.ChargeSearch(1, 3);
      cost.ChargeFetch(1, 2);
    }
  }
  std::vector<TraceSpan> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes (and records) first.
  const TraceSpan& inner = spans[0];
  const TraceSpan& outer = spans[1];
  EXPECT_STREQ(inner.name, "probe");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.node, 1);
  ASSERT_TRUE(inner.has_cost);
  EXPECT_EQ(inner.cost.searches, 3u);
  EXPECT_EQ(inner.cost.fetches, 2u);
  EXPECT_STREQ(outer.name, "txn");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_FALSE(outer.has_cost);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
}

TEST_F(TracerTest, ConcurrentRecordAndSnapshotLoseNothing) {
  Tracer::Global().Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 2000;  // > Chunk capacity: exercises links
  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Every observed span must be fully formed (name always set).
      for (const TraceSpan& s : Tracer::Global().Snapshot()) {
        EXPECT_STREQ(s.name, "worker_span");
      }
    }
  });
  std::vector<std::thread> writers;
  size_t base = Tracer::Global().Snapshot().size();
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SpanGuard span("worker_span", "test");
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(Tracer::Global().Snapshot().size(),
            base + static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST_F(TracerTest, ChromeTraceJsonEscapesAndTags) {
  Tracer::Global().Enable();
  Tracer::Global().SetCurrentThreadName("test \"main\"");
  {
    SpanGuard span("quoted", "test", /*node=*/3, nullptr, "NAIVE");
    span.set_detail("a\"b\nc");
  }
  TraceInstant("send", "net", 1, 64, "1->2");
  std::string json = Tracer::Global().ChromeTraceJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test \\\"main\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"a\\\"b\\nc\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":3"), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"NAIVE\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
  // No raw control characters may survive escaping.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }
}

TEST_F(TracerTest, ClearDropsSpansButKeepsThreadNames) {
  Tracer::Global().Enable();
  { SpanGuard span("gone", "test"); }
  EXPECT_GE(Tracer::Global().Snapshot().size(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 0u);
  { SpanGuard span("kept", "test"); }
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 1u);
}

}  // namespace
}  // namespace pjvm
