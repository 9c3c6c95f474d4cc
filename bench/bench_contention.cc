// Multi-client contention bench: N concurrent updater threads drive
// single-row maintenance transactions against one shared join view, with
// join keys drawn from a small pool so transactions collide on the AR's
// clustered-index key locks.
//
// The sweep runs the engine's write path (sharded lock table, RW node
// latches, group commit over a simulated WAL device) over a key-pool x
// thread-count grid. The pre-sharding baseline it was once compared against
// (one lock-table shard, exclusive latches, per-transaction WAL forces) is
// on record in the committed BENCH_contention.json.
//
// Conflicting acquires resolve by wait-die (older waits, younger dies) and
// the ViewManager absorbs the deadlock-avoidance kills in its bounded retry
// loop, so the client should see no aborts at all; a client-visible abort
// means the client re-submits until its transaction commits. The two other
// conflict policies this sweep once compared — no-wait, and the mirror image
// of wait-die where an older requester aborts the younger holders — are on
// record in the committed BENCH_contention_policies.json.
//
// Reported per cell: committed throughput, client-visible latency
// (p50/p95/p99 over the full submit-to-commit interval, retries included),
// client-visible aborts, deadlock kills, lock waits, shard-mutex
// contention, group-commit rounds, and internal maintenance retries. Each
// cell ends with the from-scratch consistency oracle: whatever the
// interleaving, the view must match its bases exactly.
//
// A separate bulk-delta mode measures lock escalation instead: one
// maintenance transaction applies a [txns_per_thread]-row delta, sweeping
// SystemConfig::lock_escalation_threshold over {off, 64, 256, 1024} and
// recording peak lock-table entries and throughput for each setting. This is
// the footprint claim behind the escalation PR: a bulk transaction's key
// locks collapse into a handful of fragment locks without costing
// throughput. Written to BENCH_contention_bulk.json.
//
// A mixed read/write sweep measures the MVCC snapshot read path instead
// (SystemConfig::mvcc_reads): R reader threads run explicit read
// transactions against a fixed pool of A rows while W writer threads drive
// update maintenance transactions over the same pool. Both sides are
// open-loop: the sweep offers a FIXED aggregate update rate spread evenly
// across the writer threads, and each reader issues one read per fixed
// think-time slot. Growing W therefore scales how many writers hold key X
// locks concurrently — the variable under test — without scaling CPU
// demand, and reader throughput measures whether readers meet their
// offered rate, not what share of the machine the scheduler hands them
// (closed-loop threads would turn the flatness claim into a CPU-share
// measurement on small machines). With mvcc_reads off the readers'
// table-granularity S locks collide with the writers' key X locks
// (wait-die kills the younger reader), so reads miss their slots and pay
// multi-millisecond tails; with it on the readers probe pinned snapshots
// and hold zero locks, so reader throughput and tail latency stay flat as
// writers are added. The mvcc-on cells assert that flatness in-bench: reader
// throughput at {4, 8} writers must stay >= 0.8x the same reader count's
// single-writer baseline, with zero reader lock acquisitions and zero
// reader aborts. Written to BENCH_contention_mixed.json.
//
// An escrow sweep measures value locks on aggregate views instead
// (SystemConfig::escrow_aggregates): every updater's transaction folds into
// ONE COUNT/SUM group (a constant grouped attribute; join keys spread so
// nothing else is hot), so under eager maintenance the group row's X lock
// serializes all commits across their WAL forces. With
// escrow on, the increments take compatible V locks and apply in place, so
// commits overlap and group commit amortizes the forces. The escrow-on
// cells assert in-bench that committed throughput at 8 threads is >= 2x the
// eager X-lock baseline with ZERO client-visible aborts, and every cell
// ends with the from-scratch oracle + an empty lock table and escrow
// journal. Written to BENCH_contention_escrow.json.
//
// Usage: bench_contention [txns_per_thread] [nodes] [sweep]
//   sweep = "full" (default): key pools {1, 8, 64, 1024} x threads
//           {1, 2, 4, 8}
//   sweep = "ci": just the cell CI smokes (8 threads, 64 keys)
//   sweep = "bulk": the escalation-threshold sweep; [txns_per_thread] is
//           reinterpreted as rows in the single bulk delta
//   sweep = "mixed": the MVCC read/write grid, readers {1, 2, 4, 8} x
//           writers {1, 4, 8} x mvcc_reads {off, on}
//   sweep = "mixed-ci": the four mixed cells CI smokes (2 readers,
//           writers {1, 8}, mvcc off vs on)
//   sweep = "escrow": the aggregate hot-group grid, escrow {off, on} x
//           threads {1, 2, 4, 8} on a 1-key COUNT/SUM hotspot
//   sweep = "escrow-ci": the two 8-thread escrow cells CI smokes (off vs
//           on), with the >= 2x speedup and zero-abort asserts

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "txn/lock_manager.h"
#include "view/explain.h"

namespace pjvm::bench {
namespace {

// The simulated WAL device: 5ms per force, which group commit amortizes
// across a leader round.
constexpr uint64_t kForceNs = 5'000'000;
constexpr int kWindowUs = 50;

struct ContentionConfig {
  int txns_per_thread = 50;
  int nodes = 4;
  bool ci_only = false;
  bool bulk = false;
  bool mixed = false;
  bool escrow = false;
};

/// One sweep cell: a load shape.
struct Cell {
  int threads = 1;
  int64_t key_pool = 1;
};

struct CellResult {
  Cell cell;
  uint64_t committed = 0;
  uint64_t client_aborts = 0;
  double wall_ms = 0.0;
  double committed_per_sec = 0.0;
  uint64_t deadlock_kills = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_timeouts = 0;
  uint64_t shard_contention = 0;
  uint64_t maintain_retries = 0;
  uint64_t group_commit_rounds = 0;
  HistogramData latency;
};

CellResult RunCell(const ContentionConfig& cc, const Cell& cell) {
  CellResult result;
  result.cell = cell;

  SystemConfig cfg;
  cfg.num_nodes = cc.nodes;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  // Commits hold their locks across multi-millisecond forces, so blocked
  // maintenance needs a deeper retry budget than the default before the
  // abort becomes client-visible.
  cfg.maintain_max_attempts = 16;
  cfg.maintain_retry_base_us = 100;
  cfg.wal_force_ns = kForceNs;
  cfg.group_commit_window_us = kWindowUs;
  ParallelSystem sys(cfg);

  // The paper's two-relation setup, with a tiny B key domain so concurrent
  // updaters collide on the same AR index-key locks.
  TwoTableConfig tt;
  tt.b_join_keys = cell.key_pool;
  tt.fanout = 2;
  LoadTwoTable(&sys, tt).Check();
  ViewManager manager(&sys);
  manager.RegisterView(MakeModelView(), MaintenanceMethod::kAuxRelation)
      .Check();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t kills0 = metrics.counter("pjvm_lock_deadlock_kills")->value();
  const uint64_t waits0 = metrics.counter("pjvm_lock_waits")->value();
  const uint64_t touts0 = metrics.counter("pjvm_lock_wait_timeouts")->value();
  const uint64_t shard0 =
      metrics.counter("pjvm_lock_shard_contention")->value();
  const uint64_t retries0 = metrics.counter("pjvm_maintain_retries")->value();
  const uint64_t rounds0 =
      metrics.histogram("pjvm_group_commit_batch_size")->Snapshot().count;

  LatencyHistogram latency;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> client_aborts{0};

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> updaters;
  updaters.reserve(cell.threads);
  for (int t = 0; t < cell.threads; ++t) {
    updaters.emplace_back([&, t] {
      for (int i = 0; i < cc.txns_per_thread; ++i) {
        // Unique A key per logical transaction; the join attribute cycles
        // through B's small key pool, so concurrent transactions hit the
        // same AR index-key locks.
        Row row = MakeDeltaA(tt, static_cast<int64_t>(t) * 1000000 + i);
        auto t0 = std::chrono::steady_clock::now();
        // The client's contract is "this update happens": a client-visible
        // abort means re-submitting the whole transaction.
        for (;;) {
          auto report = manager.InsertRow("A", row);
          if (report.ok()) break;
          if (!report.status().IsAborted()) report.status().Check();
          client_aborts.fetch_add(1);
        }
        auto t1 = std::chrono::steady_clock::now();
        committed.fetch_add(1);
        latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }
  for (auto& th : updaters) th.join();
  auto end = std::chrono::steady_clock::now();

  result.committed = committed.load();
  result.client_aborts = client_aborts.load();
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  result.committed_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * result.committed / result.wall_ms : 0.0;
  result.deadlock_kills =
      metrics.counter("pjvm_lock_deadlock_kills")->value() - kills0;
  result.lock_waits = metrics.counter("pjvm_lock_waits")->value() - waits0;
  result.lock_wait_timeouts =
      metrics.counter("pjvm_lock_wait_timeouts")->value() - touts0;
  result.shard_contention =
      metrics.counter("pjvm_lock_shard_contention")->value() - shard0;
  result.maintain_retries =
      metrics.counter("pjvm_maintain_retries")->value() - retries0;
  result.group_commit_rounds =
      metrics.histogram("pjvm_group_commit_batch_size")->Snapshot().count -
      rounds0;
  result.latency = latency.Snapshot();

  // The whole point of running maintenance inside the transaction: however
  // the interleaving went, the view must equal the from-scratch join.
  manager.CheckAllConsistent().Check();
  if (sys.locks().TotalLocks() != 0) {
    Status::Internal("lock table not empty after quiesce").Check();
  }
  return result;
}

std::string CellJson(const CellResult& r) {
  JsonWriter w;
  w.BeginObject()
      .Key("threads").Int(r.cell.threads)
      .Key("key_pool").Int(r.cell.key_pool)
      .Key("committed").Uint(r.committed)
      .Key("client_visible_aborts").Uint(r.client_aborts)
      .Key("wall_ms").Num(r.wall_ms)
      .Key("committed_per_sec").Num(r.committed_per_sec)
      .Key("deadlock_kills").Uint(r.deadlock_kills)
      .Key("lock_waits").Uint(r.lock_waits)
      .Key("lock_wait_timeouts").Uint(r.lock_wait_timeouts)
      .Key("shard_contention").Uint(r.shard_contention)
      .Key("maintain_retries").Uint(r.maintain_retries)
      .Key("group_commit_rounds").Uint(r.group_commit_rounds)
      .Key("client_latency_ns").Raw(LatencyJson(r.latency))
      .EndObject();
  return w.str();
}

// ------------------------------------------------ bulk escalation sweep

struct BulkResult {
  int threshold = 0;
  int rows = 0;
  double wall_ms = 0.0;
  double rows_per_sec = 0.0;
  size_t peak_shard_entries = 0;
  uint64_t escalations = 0;
  uint64_t entries_reclaimed = 0;
  uint64_t analysis_escalations = 0;
  uint64_t analysis_entries_reclaimed = 0;
};

BulkResult RunBulkCell(const ContentionConfig& cc, int threshold) {
  BulkResult result;
  result.threshold = threshold;
  result.rows = cc.txns_per_thread;

  SystemConfig cfg;
  cfg.num_nodes = cc.nodes;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  cfg.maintain_max_attempts = 16;
  cfg.maintain_retry_base_us = 100;
  // No WAL device: the bulk cell isolates lock-table bookkeeping, so the
  // run is compute-bound rather than dominated by a simulated force.
  cfg.wal_force_ns = 0;
  cfg.lock_escalation_threshold = threshold;
  ParallelSystem sys(cfg);

  TwoTableConfig tt;
  tt.b_join_keys = 64;
  tt.fanout = 2;
  LoadTwoTable(&sys, tt).Check();
  ViewManager manager(&sys);
  manager.RegisterView(MakeModelView(), MaintenanceMethod::kAuxRelation)
      .Check();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t esc0 = metrics.counter("pjvm_lock_escalations")->value();
  const uint64_t rec0 =
      metrics.counter("pjvm_lock_entries_reclaimed")->value();
  sys.locks().ResetPeakEntries();

  std::vector<Row> rows;
  rows.reserve(result.rows);
  for (int i = 0; i < result.rows; ++i) {
    rows.push_back(MakeDeltaA(tt, 1'000'000 + i));
  }
  MaintenanceAnalysis analysis;
  auto start = std::chrono::steady_clock::now();
  manager.ApplyDelta(DeltaBatch::Inserts("A", std::move(rows)), &analysis)
      .status()
      .Check();
  auto end = std::chrono::steady_clock::now();

  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  result.rows_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * result.rows / result.wall_ms : 0.0;
  result.peak_shard_entries = sys.locks().PeakShardEntries();
  result.escalations =
      metrics.counter("pjvm_lock_escalations")->value() - esc0;
  result.entries_reclaimed =
      metrics.counter("pjvm_lock_entries_reclaimed")->value() - rec0;
  result.analysis_escalations = analysis.escalations;
  result.analysis_entries_reclaimed = analysis.lock_entries_reclaimed;

  manager.CheckAllConsistent().Check();
  if (sys.locks().TotalLocks() != 0) {
    Status::Internal("lock table not empty after bulk delta").Check();
  }
  return result;
}

std::string BulkJson(const BulkResult& r) {
  JsonWriter w;
  w.BeginObject()
      .Key("threshold").Int(r.threshold)
      .Key("rows").Int(r.rows)
      .Key("wall_ms").Num(r.wall_ms)
      .Key("rows_per_sec").Num(r.rows_per_sec)
      .Key("peak_shard_entries").Uint(r.peak_shard_entries)
      .Key("escalations").Uint(r.escalations)
      .Key("entries_reclaimed").Uint(r.entries_reclaimed)
      .Key("analysis_escalations").Uint(r.analysis_escalations)
      .Key("analysis_entries_reclaimed").Uint(r.analysis_entries_reclaimed)
      .EndObject();
  return w.str();
}

void RunBulk(const ContentionConfig& cc) {
  PrintHeader("bulk escalation sweep: " +
              std::to_string(cc.txns_per_thread) + " rows, " +
              std::to_string(cc.nodes) + " nodes");
  BenchReport report("contention_bulk");
  {
    JsonWriter w;
    w.BeginObject()
        .Key("rows").Int(cc.txns_per_thread)
        .Key("nodes").Int(cc.nodes)
        .EndObject();
    report.Add("config", w.str());
  }
  JsonWriter sweep;
  sweep.BeginArray();
  for (int threshold : {0, 64, 256, 1024}) {
    BulkResult r = RunBulkCell(cc, threshold);
    std::cout << "threshold="
              << (r.threshold == 0 ? std::string("off")
                                   : std::to_string(r.threshold))
              << ": rows=" << r.rows << " wall_ms=" << r.wall_ms
              << " rows_per_sec=" << r.rows_per_sec
              << " peak_shard_entries=" << r.peak_shard_entries
              << " escalations=" << r.escalations
              << " reclaimed=" << r.entries_reclaimed << "\n";
    sweep.Raw(BulkJson(r));
  }
  sweep.EndArray();
  report.Add("sweep", sweep.str());
  report.Write();
}

// ------------------------------------------------ mixed read/write sweep

/// Preloaded A rows the mixed cells read and update. Small enough that the
/// writers' key locks blanket the table, large enough that every writer
/// count in the grid owns a disjoint slice.
constexpr int64_t kMixedPool = 64;
// A cheaper simulated force than the write-only sweep's: writer commits
// still hold locks across a multi-millisecond window, but a cell is not
// dominated by WAL sleeps.
constexpr uint64_t kMixedForceNs = 2'000'000;
// Aggregate spacing of the open-loop writer schedule: one update is
// offered every 8ms regardless of W (writer w fires txn i at cell start +
// (i*W + w) * spacing, so the offered load is uniform and W only changes
// how many writers can be mid-transaction at once). 125 updates/s sits
// below what one writer sustains closed-loop even with readers
// interfering, so the schedule never falls behind.
constexpr int64_t kMixedWriterSpacingUs = 8'000;
// Per-reader think time: each reader offers one read per 500us slot
// (2000 reads/s/reader). A snapshot read costs ~10us, so even 8 readers
// plus the writer load fit in a fraction of one core — a reader that
// misses slots is blocked on the lock protocol, not starved of CPU.
constexpr int64_t kMixedReaderPeriodUs = 500;

struct MixedCell {
  bool mvcc = false;
  int readers = 1;
  int writers = 1;
};

struct MixedResult {
  MixedCell cell;
  uint64_t writer_committed = 0;
  uint64_t reader_reads = 0;
  /// Wait-die kills of reader transactions (client-visible Aborted).
  uint64_t reader_aborts = 0;
  /// Sum over successful reads of locks().HeldCount(reader txn) sampled
  /// just before commit: the direct "readers acquire zero locks" evidence.
  uint64_t reader_locks_held = 0;
  double wall_ms = 0.0;
  double reader_reads_per_sec = 0.0;
  double writer_committed_per_sec = 0.0;
  HistogramData read_latency;
};

MixedResult RunMixedCell(const ContentionConfig& cc, const MixedCell& cell) {
  MixedResult result;
  result.cell = cell;

  SystemConfig cfg;
  cfg.num_nodes = cc.nodes;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  cfg.maintain_max_attempts = 16;
  cfg.maintain_retry_base_us = 100;
  cfg.wal_force_ns = kMixedForceNs;
  cfg.group_commit_window_us = kWindowUs;
  cfg.mvcc_reads = cell.mvcc;
  ParallelSystem sys(cfg);

  TwoTableConfig tt;
  tt.b_join_keys = 16;
  tt.fanout = 2;
  LoadTwoTable(&sys, tt).Check();
  // The shared A pool goes in before the view registers, so backfill
  // materializes its join rows.
  for (int64_t k = 0; k < kMixedPool; ++k) {
    sys.Insert("A", MakeDeltaA(tt, k)).Check();
  }
  ViewManager manager(&sys);
  manager.RegisterView(MakeModelView(), MaintenanceMethod::kAuxRelation)
      .Check();

  LatencyHistogram read_latency;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> writer_committed{0};
  std::atomic<uint64_t> reader_reads{0};
  std::atomic<uint64_t> reader_aborts{0};
  std::atomic<uint64_t> reader_locks_held{0};

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cell.writers + cell.readers);
  for (int w = 0; w < cell.writers; ++w) {
    threads.emplace_back([&, w] {
      // Each writer owns the pool keys congruent to it mod W, so writers
      // never contend with each other on base rows (their collisions are on
      // the AR/JV structures); each tracks its rows' current images so the
      // update's delete half matches exactly.
      std::vector<Row> owned;
      for (int64_t k = w; k < kMixedPool; k += cell.writers) {
        owned.push_back(MakeDeltaA(tt, k));
      }
      const auto spacing = std::chrono::microseconds(kMixedWriterSpacingUs);
      for (int i = 0; i < cc.txns_per_thread; ++i) {
        // Open-loop schedule: this writer's slot in the fixed aggregate
        // offered rate (see kMixedWriterSpacingUs). A no-op if the cell
        // has fallen behind schedule.
        std::this_thread::sleep_until(
            start + spacing * (int64_t{i} * cell.writers + w));
        Row& row = owned[i % owned.size()];
        Row next = row;
        next[2] = Value{next[2].AsInt64() + kMixedPool * 3};
        for (;;) {
          auto report = manager.UpdateRow("A", row, next);
          if (report.ok()) break;
          if (!report.status().IsAborted()) report.status().Check();
        }
        row = next;
        writer_committed.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < cell.readers; ++r) {
    threads.emplace_back([&, r] {
      // Probe the join attribute: A has no index on c, so the mvcc-off path
      // takes a table-granularity S lock per node — squarely in conflict
      // with every writer's key X locks — while the mvcc-on path reads a
      // pinned snapshot and locks nothing.
      int64_t key = r;
      const auto period = std::chrono::microseconds(kMixedReaderPeriodUs);
      // Staggered open-loop slots (see kMixedReaderPeriodUs). Latency is
      // measured from the scheduled slot, not the actual start, so a
      // reader delayed by the lock protocol shows the backlog in its tail
      // (no coordinated omission).
      auto t0 = start + period * r / cell.readers;
      while (!writers_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_until(t0);
        bool read_ok = false;
        while (!read_ok && !writers_done.load(std::memory_order_relaxed)) {
          uint64_t txn = sys.Begin();
          Result<std::vector<Row>> rows =
              sys.SelectEq("A", "c", Value{key % tt.b_join_keys}, txn);
          if (rows.ok()) {
            reader_locks_held.fetch_add(sys.locks().HeldCount(txn));
            sys.Commit(txn).Check();
            read_ok = true;
          } else {
            if (!rows.status().IsAborted()) rows.status().Check();
            sys.Abort(txn);
            reader_aborts.fetch_add(1);
          }
        }
        if (!read_ok) break;
        auto t1 = std::chrono::steady_clock::now();
        reader_reads.fetch_add(1);
        read_latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        t0 += period;
        ++key;
      }
    });
  }
  for (int i = 0; i < cell.writers; ++i) threads[i].join();
  auto end = std::chrono::steady_clock::now();
  writers_done.store(true);
  for (size_t i = cell.writers; i < threads.size(); ++i) threads[i].join();

  result.writer_committed = writer_committed.load();
  result.reader_reads = reader_reads.load();
  result.reader_aborts = reader_aborts.load();
  result.reader_locks_held = reader_locks_held.load();
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  result.reader_reads_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * result.reader_reads / result.wall_ms
                           : 0.0;
  result.writer_committed_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * result.writer_committed / result.wall_ms
                           : 0.0;
  result.read_latency = read_latency.Snapshot();

  manager.CheckAllConsistent().Check();
  if (sys.locks().TotalLocks() != 0) {
    Status::Internal("lock table not empty after mixed cell").Check();
  }
  return result;
}

std::string MixedJson(const MixedResult& r) {
  JsonWriter w;
  w.BeginObject()
      .Key("mvcc").Str(r.cell.mvcc ? "on" : "off")
      .Key("readers").Int(r.cell.readers)
      .Key("writers").Int(r.cell.writers)
      .Key("writer_committed").Uint(r.writer_committed)
      .Key("writer_committed_per_sec").Num(r.writer_committed_per_sec)
      .Key("reader_reads").Uint(r.reader_reads)
      .Key("reader_reads_per_sec").Num(r.reader_reads_per_sec)
      .Key("reader_aborts").Uint(r.reader_aborts)
      .Key("reader_locks_held").Uint(r.reader_locks_held)
      .Key("wall_ms").Num(r.wall_ms)
      .Key("reader_latency_ns").Raw(LatencyJson(r.read_latency))
      .EndObject();
  return w.str();
}

void RunMixed(const ContentionConfig& cc) {
  const std::vector<int> reader_counts =
      cc.ci_only ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> writer_counts =
      cc.ci_only ? std::vector<int>{1, 8} : std::vector<int>{1, 4, 8};
  PrintHeader("mixed read/write sweep: readers x writers x mvcc {off,on}, " +
              std::to_string(cc.txns_per_thread) + " txns/writer, " +
              std::to_string(cc.nodes) + " nodes");
  BenchReport report("contention_mixed");
  {
    JsonWriter w;
    w.BeginObject()
        .Key("txns_per_writer").Int(cc.txns_per_thread)
        .Key("nodes").Int(cc.nodes)
        .Key("a_pool").Int(kMixedPool)
        .Key("b_join_keys").Int(16)
        .Key("wal_force_ns").Uint(kMixedForceNs)
        .Key("writer_spacing_us").Int(kMixedWriterSpacingUs)
        .Key("reader_period_us").Int(kMixedReaderPeriodUs)
        .Key("sweep").Str(cc.ci_only ? "mixed-ci" : "mixed")
        .EndObject();
    report.Add("config", w.str());
  }
  // results[mvcc][readers] -> per-writer-count cells, in writer_counts order.
  std::vector<MixedResult> all;
  JsonWriter sweep;
  sweep.BeginArray();
  for (bool mvcc : {false, true}) {
    for (int readers : reader_counts) {
      for (int writers : writer_counts) {
        MixedResult r = RunMixedCell(cc, {mvcc, readers, writers});
        std::cout << "mvcc=" << (mvcc ? "on" : "off")
                  << " readers=" << r.cell.readers
                  << " writers=" << r.cell.writers
                  << ": reads=" << r.reader_reads
                  << " reads/s=" << r.reader_reads_per_sec
                  << " read_p95=" << r.read_latency.P95() / 1e6 << "ms"
                  << " reader_aborts=" << r.reader_aborts
                  << " reader_locks=" << r.reader_locks_held
                  << " writes/s=" << r.writer_committed_per_sec << "\n";
        sweep.Raw(MixedJson(r));
        all.push_back(std::move(r));
      }
    }
  }
  sweep.EndArray();
  report.Add("sweep", sweep.str());
  report.Write();

  // The PR's claims, enforced in-bench for the mvcc-on cells: snapshot
  // readers acquire no locks and are never wait-die victims, and reader
  // throughput stays within 0.8x of the same reader count's single-writer
  // baseline as writers are added.
  for (const MixedResult& r : all) {
    if (!r.cell.mvcc) continue;
    if (r.reader_locks_held != 0) {
      Status::Internal("mvcc reader held locks").Check();
    }
    if (r.reader_aborts != 0) {
      Status::Internal("mvcc reader aborted").Check();
    }
  }
  for (int readers : reader_counts) {
    double base = 0.0;
    for (const MixedResult& r : all) {
      if (r.cell.mvcc && r.cell.readers == readers && r.cell.writers == 1) {
        base = r.reader_reads_per_sec;
      }
    }
    if (base <= 0.0) continue;
    for (const MixedResult& r : all) {
      if (!r.cell.mvcc || r.cell.readers != readers || r.cell.writers == 1) {
        continue;
      }
      if (r.reader_reads_per_sec < 0.8 * base) {
        Status::Internal(
            "mvcc reader throughput not flat: readers=" +
            std::to_string(readers) + " writers=" +
            std::to_string(r.cell.writers) + " " +
            std::to_string(r.reader_reads_per_sec) + "/s vs baseline " +
            std::to_string(base) + "/s")
            .Check();
      }
    }
  }
  std::cout << "mixed sweep asserts passed: mvcc readers lock-free and flat\n";
}

// ------------------------------------------------ escrow hot-group sweep

/// SELECT A.e, COUNT(*), SUM(B.f) over the model join, grouped on A.e: the
/// deltas keep e constant, so every maintenance transaction lands in ONE
/// group row, while their join attributes spread over B's full key pool —
/// the base tables and join structures see almost no key conflicts, so the
/// sweep isolates the view group's lock protocol (X vs V).
JoinViewDef MakeAggView() {
  JoinViewDef def;
  def.name = "AGG";
  def.bases = {{"A", "A"}, {"B", "B"}};
  def.edges = {{{"A", "c"}, {"B", "d"}}};
  def.aggregates = {{AggFn::kCount, {}}, {AggFn::kSum, {"B", "f"}}};
  def.group_by = {{"A", "e"}};
  return def;
}

/// The i-th hot-group delta: unique key, join attribute spread uniformly,
/// constant grouped attribute e = 0.
Row MakeHotGroupDeltaA(const TwoTableConfig& tt, int64_t i) {
  return {Value{i}, Value{i % tt.b_join_keys}, Value{int64_t{0}}};
}

struct EscrowResult {
  bool escrow = false;
  int threads = 1;
  uint64_t committed = 0;
  uint64_t client_aborts = 0;
  double wall_ms = 0.0;
  double committed_per_sec = 0.0;
  uint64_t escrow_ops = 0;
  uint64_t vlock_grants = 0;
  uint64_t vlock_upgrades = 0;
  uint64_t lock_waits = 0;
  uint64_t maintain_retries = 0;
  HistogramData latency;
};

EscrowResult RunEscrowCell(const ContentionConfig& cc, int threads,
                           bool escrow_on) {
  EscrowResult result;
  result.escrow = escrow_on;
  result.threads = threads;

  // The same engine configuration either way; the ONLY toggle between
  // the paired cells is the escrow knob, so the ratio isolates V locks.
  SystemConfig cfg;
  cfg.num_nodes = cc.nodes;
  cfg.rows_per_page = 8;
  cfg.enable_locking = true;
  cfg.lock_wait_timeout_ms = 500;
  cfg.maintain_max_attempts = 16;
  cfg.maintain_retry_base_us = 100;
  cfg.wal_force_ns = kForceNs;
  cfg.group_commit_window_us = kWindowUs;
  cfg.escrow_aggregates = escrow_on;
  ParallelSystem sys(cfg);

  // Spread join keys, ONE group (see MakeHotGroupDeltaA): every inserted A
  // row contributes to the same COUNT/SUM group, the worst-case aggregate
  // hotspot, without a base-table key hotspot alongside it.
  TwoTableConfig tt;
  tt.b_join_keys = 64;
  tt.fanout = 2;
  LoadTwoTable(&sys, tt).Check();
  // An anchor row born before the view registers: backfill materializes the
  // group, so the timed run is pure increments (no birth/death edges) and
  // the group can never die mid-run.
  sys.Insert("A", MakeHotGroupDeltaA(tt, 999'000'000)).Check();
  ViewManager manager(&sys);
  manager.RegisterView(MakeAggView(), MaintenanceMethod::kNaive).Check();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t ops0 = metrics.counter("pjvm_escrow_ops")->value();
  const uint64_t grants0 = metrics.counter("pjvm_vlock_grants")->value();
  const uint64_t upg0 = metrics.counter("pjvm_vlock_upgrades")->value();
  const uint64_t waits0 = metrics.counter("pjvm_lock_waits")->value();
  const uint64_t retries0 = metrics.counter("pjvm_maintain_retries")->value();

  LatencyHistogram latency;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> client_aborts{0};

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> updaters;
  updaters.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    updaters.emplace_back([&, t] {
      for (int i = 0; i < cc.txns_per_thread; ++i) {
        Row row =
            MakeHotGroupDeltaA(tt, static_cast<int64_t>(t) * 1000000 + i);
        auto t0 = std::chrono::steady_clock::now();
        for (;;) {
          auto report = manager.InsertRow("A", row);
          if (report.ok()) break;
          if (!report.status().IsAborted()) report.status().Check();
          client_aborts.fetch_add(1);
        }
        auto t1 = std::chrono::steady_clock::now();
        committed.fetch_add(1);
        latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
    });
  }
  for (auto& th : updaters) th.join();
  auto end = std::chrono::steady_clock::now();

  result.committed = committed.load();
  result.client_aborts = client_aborts.load();
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  result.committed_per_sec =
      result.wall_ms > 0.0 ? 1000.0 * result.committed / result.wall_ms : 0.0;
  result.escrow_ops = metrics.counter("pjvm_escrow_ops")->value() - ops0;
  result.vlock_grants =
      metrics.counter("pjvm_vlock_grants")->value() - grants0;
  result.vlock_upgrades =
      metrics.counter("pjvm_vlock_upgrades")->value() - upg0;
  result.lock_waits = metrics.counter("pjvm_lock_waits")->value() - waits0;
  result.maintain_retries =
      metrics.counter("pjvm_maintain_retries")->value() - retries0;
  result.latency = latency.Snapshot();

  // Whatever the interleaving: the group equals the from-scratch join, the
  // lock table drained, and (escrow on) the journal settled to empty.
  manager.CheckAllConsistent().Check();
  if (sys.locks().TotalLocks() != 0) {
    Status::Internal("lock table not empty after escrow cell").Check();
  }
  if (escrow_on) {
    manager.escrow()->CheckConsistent().Check();
    if (result.escrow_ops == 0) {
      Status::Internal("escrow cell never took the V-lock path").Check();
    }
  }
  return result;
}

std::string EscrowJson(const EscrowResult& r) {
  JsonWriter w;
  w.BeginObject()
      .Key("escrow").Str(r.escrow ? "on" : "off")
      .Key("threads").Int(r.threads)
      .Key("committed").Uint(r.committed)
      .Key("client_visible_aborts").Uint(r.client_aborts)
      .Key("wall_ms").Num(r.wall_ms)
      .Key("committed_per_sec").Num(r.committed_per_sec)
      .Key("escrow_ops").Uint(r.escrow_ops)
      .Key("vlock_grants").Uint(r.vlock_grants)
      .Key("vlock_upgrades").Uint(r.vlock_upgrades)
      .Key("lock_waits").Uint(r.lock_waits)
      .Key("maintain_retries").Uint(r.maintain_retries)
      .Key("client_latency_ns").Raw(LatencyJson(r.latency))
      .EndObject();
  return w.str();
}

void RunEscrow(const ContentionConfig& cc) {
  const std::vector<int> thread_counts =
      cc.ci_only ? std::vector<int>{8} : std::vector<int>{1, 2, 4, 8};
  PrintHeader("escrow hot-group sweep: one COUNT/SUM group hotspot, escrow "
              "{off,on} x threads, " +
              std::to_string(cc.txns_per_thread) + " txns/thread, " +
              std::to_string(cc.nodes) + " nodes");
  BenchReport report("contention_escrow");
  {
    JsonWriter w;
    w.BeginObject()
        .Key("txns_per_thread").Int(cc.txns_per_thread)
        .Key("nodes").Int(cc.nodes)
        .Key("b_join_keys").Int(64)
        .Key("wal_force_ns").Uint(kForceNs)
        .Key("group_commit_window_us").Int(kWindowUs)
        .Key("sweep").Str(cc.ci_only ? "escrow-ci" : "escrow")
        .EndObject();
    report.Add("config", w.str());
  }
  std::vector<EscrowResult> all;
  JsonWriter sweep;
  sweep.BeginArray();
  for (bool on : {false, true}) {
    for (int threads : thread_counts) {
      EscrowResult r = RunEscrowCell(cc, threads, on);
      std::cout << "escrow=" << (on ? "on" : "off")
                << " threads=" << r.threads << ": committed=" << r.committed
                << " aborts=" << r.client_aborts
                << " throughput=" << r.committed_per_sec << "/s"
                << " p95=" << r.latency.P95() / 1e6 << "ms"
                << " escrow_ops=" << r.escrow_ops
                << " upgrades=" << r.vlock_upgrades
                << " waits=" << r.lock_waits
                << " retries=" << r.maintain_retries << "\n";
      sweep.Raw(EscrowJson(r));
      all.push_back(std::move(r));
    }
  }
  sweep.EndArray();
  report.Add("sweep", sweep.str());
  report.Write();

  // The PR's claim, enforced in-bench: at 8 threads on the 1-key aggregate
  // hotspot, escrow commits >= 2x the eager X-lock baseline's throughput
  // with zero client-visible aborts.
  double eager8 = 0.0, escrow8 = 0.0;
  uint64_t escrow_aborts = 0;
  for (const EscrowResult& r : all) {
    if (r.threads == 8 && !r.escrow) eager8 = r.committed_per_sec;
    if (r.threads == 8 && r.escrow) escrow8 = r.committed_per_sec;
    if (r.escrow) escrow_aborts += r.client_aborts;
  }
  if (escrow_aborts != 0) {
    Status::Internal("escrow cells saw client-visible aborts").Check();
  }
  if (eager8 > 0.0 && escrow8 < 2.0 * eager8) {
    Status::Internal("escrow speedup below 2x at 8 threads: " +
                     std::to_string(escrow8) + "/s vs eager " +
                     std::to_string(eager8) + "/s")
        .Check();
  }
  std::cout << "escrow sweep asserts passed: "
            << (eager8 > 0.0 ? escrow8 / eager8 : 0.0)
            << "x at 8 threads, zero client-visible aborts\n";
}

std::vector<Cell> BuildSweep(const ContentionConfig& cc) {
  std::vector<Cell> cells;
  if (cc.ci_only) {
    // The cell CI smokes: 8 threads over a 64-key pool.
    cells.push_back({8, 64});
    return cells;
  }
  const std::vector<int64_t> key_pools = {1, 8, 64, 1024};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  for (int64_t keys : key_pools) {
    for (int threads : thread_counts) cells.push_back({threads, keys});
  }
  return cells;
}

void Run(const ContentionConfig& cc) {
  if (cc.bulk) {
    RunBulk(cc);
    return;
  }
  if (cc.mixed) {
    RunMixed(cc);
    return;
  }
  if (cc.escrow) {
    RunEscrow(cc);
    return;
  }
  std::vector<Cell> cells = BuildSweep(cc);
  PrintHeader("contention sweep: " + std::to_string(cells.size()) +
              " cells x " + std::to_string(cc.txns_per_thread) +
              " txns/thread, " + std::to_string(cc.nodes) + " nodes");
  BenchReport report("contention");
  {
    JsonWriter w;
    w.BeginObject()
        .Key("txns_per_thread").Int(cc.txns_per_thread)
        .Key("nodes").Int(cc.nodes)
        .Key("wal_force_ns").Uint(kForceNs)
        .Key("group_commit_window_us").Int(kWindowUs)
        .Key("sweep").Str(cc.ci_only ? "ci" : "full")
        .EndObject();
    report.Add("config", w.str());
  }
  JsonWriter sweep;
  sweep.BeginArray();
  for (const Cell& cell : cells) {
    CellResult r = RunCell(cc, cell);
    std::cout << "threads=" << r.cell.threads << " keys=" << r.cell.key_pool
              << ": committed=" << r.committed
              << " aborts=" << r.client_aborts
              << " throughput=" << r.committed_per_sec << "/s"
              << " p95=" << r.latency.P95() / 1e6 << "ms"
              << " kills=" << r.deadlock_kills
              << " waits=" << r.lock_waits
              << " retries=" << r.maintain_retries
              << " gc_rounds=" << r.group_commit_rounds << "\n";
    sweep.Raw(CellJson(r));
  }
  sweep.EndArray();
  report.Add("sweep", sweep.str());
  report.Write();
}

}  // namespace
}  // namespace pjvm::bench

int main(int argc, char** argv) {
  pjvm::bench::ContentionConfig cc;
  if (argc > 1) cc.txns_per_thread = std::stoi(argv[1]);
  if (argc > 2) cc.nodes = std::stoi(argv[2]);
  if (argc > 3) {
    const std::string sweep = argv[3];
    cc.ci_only = sweep == "ci" || sweep == "mixed-ci" || sweep == "escrow-ci";
    cc.bulk = sweep == "bulk";
    cc.mixed = sweep == "mixed" || sweep == "mixed-ci";
    cc.escrow = sweep == "escrow" || sweep == "escrow-ci";
  }
  pjvm::bench::Run(cc);
  return 0;
}
