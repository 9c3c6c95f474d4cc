#ifndef PJVM_COMMON_METRICS_H_
#define PJVM_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pjvm {

/// \brief Unit costs for the four primitive operations of the paper's model
/// (Section 3.1): SEARCH, FETCH, INSERT (in I/Os) and SEND (network).
///
/// Defaults follow the paper: "SEARCH takes one I/O, FETCH takes one I/O, and
/// INSERT takes two I/Os", and "the time spent on SEND is much smaller than
/// the time spent on SEARCH, FETCH, and INSERT", so SEND contributes zero to
/// the I/O metric but is still counted as messages.
struct CostWeights {
  double search = 1.0;
  double fetch = 1.0;
  double insert = 2.0;
  double send = 0.0;
};

/// \brief Per-node activity counters for one node of the parallel system.
struct NodeCounters {
  uint64_t searches = 0;
  uint64_t fetches = 0;
  uint64_t inserts = 0;
  uint64_t sends = 0;
  uint64_t bytes_sent = 0;
  /// Breakdown of `inserts` (write I/Os) by what was written — base
  /// relations, auxiliary structures (ARs/GIs), and views. Lets experiments
  /// isolate the delta-join compute cost the way the paper's Section 3.3
  /// measurement does ("we only measured the time spent on the second
  /// step"), by subtracting the write categories all methods share.
  uint64_t base_writes = 0;
  uint64_t structure_writes = 0;
  uint64_t view_writes = 0;
  /// Tree descents: root-to-leaf traversals of any key-ordered structure
  /// (index probe, per-index maintenance on a write, merged-tree range
  /// descent). A locality metric, NOT part of the paper's cost model — it is
  /// excluded from IO()/ComputeIO() so TW/RT stay bit-identical whether or
  /// not descents are counted. The merged-storage ablation compares layouts
  /// by this number.
  uint64_t descents = 0;

  /// Weighted I/O total for this node (the paper's per-node work, which
  /// drives response time as the max over nodes).
  double IO(const CostWeights& w) const {
    return w.search * searches + w.fetch * fetches + w.insert * inserts +
           w.send * sends;
  }

  /// Weighted I/O excluding every write (the join-compute portion).
  double ComputeIO(const CostWeights& w) const {
    return w.search * searches + w.fetch * fetches;
  }

  NodeCounters& operator+=(const NodeCounters& o) {
    searches += o.searches;
    fetches += o.fetches;
    inserts += o.inserts;
    sends += o.sends;
    bytes_sent += o.bytes_sent;
    base_writes += o.base_writes;
    structure_writes += o.structure_writes;
    view_writes += o.view_writes;
    descents += o.descents;
    return *this;
  }
  friend NodeCounters operator-(NodeCounters a, const NodeCounters& b) {
    a.searches -= b.searches;
    a.fetches -= b.fetches;
    a.inserts -= b.inserts;
    a.sends -= b.sends;
    a.bytes_sent -= b.bytes_sent;
    a.base_writes -= b.base_writes;
    a.structure_writes -= b.structure_writes;
    a.view_writes -= b.view_writes;
    a.descents -= b.descents;
    return a;
  }
};

/// \brief Metering for the whole parallel system: one NodeCounters per data
/// server node.
///
/// The two summary metrics mirror the paper's Section 3.1:
///  - TotalWorkload() — "the sum of the work done over all the nodes" (TW);
///  - ResponseTime()  — the max per-node work, i.e. the makespan when all
///    nodes proceed in parallel.
///
/// Counters are lock-free atomics so the per-node executor's workers
/// can charge concurrently. Each worker only ever charges its own node, but
/// the relaxed atomics also make cross-node charges (e.g. a SEND charged to
/// the message source from another node's worker) race-free. All aggregates
/// (TW, response time, per-node sums) are order-independent, so parallel and
/// sequential execution of the same work meter identically.
class CostTracker {
 private:
  /// Cache-line-padded atomic mirror of NodeCounters: one slot per node, so
  /// workers charging their own node never contend or false-share.
  struct alignas(64) AtomicCounters {
    std::atomic<uint64_t> searches{0};
    std::atomic<uint64_t> fetches{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> sends{0};
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> base_writes{0};
    std::atomic<uint64_t> structure_writes{0};
    std::atomic<uint64_t> view_writes{0};
    std::atomic<uint64_t> descents{0};

    NodeCounters Load() const {
      NodeCounters c;
      c.searches = searches.load(std::memory_order_relaxed);
      c.fetches = fetches.load(std::memory_order_relaxed);
      c.inserts = inserts.load(std::memory_order_relaxed);
      c.sends = sends.load(std::memory_order_relaxed);
      c.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
      c.base_writes = base_writes.load(std::memory_order_relaxed);
      c.structure_writes = structure_writes.load(std::memory_order_relaxed);
      c.view_writes = view_writes.load(std::memory_order_relaxed);
      c.descents = descents.load(std::memory_order_relaxed);
      return c;
    }
    void Clear() {
      searches.store(0, std::memory_order_relaxed);
      fetches.store(0, std::memory_order_relaxed);
      inserts.store(0, std::memory_order_relaxed);
      sends.store(0, std::memory_order_relaxed);
      bytes_sent.store(0, std::memory_order_relaxed);
      base_writes.store(0, std::memory_order_relaxed);
      structure_writes.store(0, std::memory_order_relaxed);
      view_writes.store(0, std::memory_order_relaxed);
      descents.store(0, std::memory_order_relaxed);
    }
  };

 public:
  explicit CostTracker(int num_nodes, CostWeights weights = CostWeights{})
      : weights_(weights), nodes_(num_nodes) {}

  /// \brief Exact per-transaction attribution under concurrency.
  ///
  /// Diffing global Snapshot()s around a transaction attributes *everything
  /// the system did meanwhile* to that transaction — a concurrent
  /// maintenance transaction's I/O pollutes the bracket. A TxnMeter instead
  /// mirrors, into its own per-node slots, every charge made while it is
  /// active on the charging thread (see MeterScope); NodeExecutor hands the
  /// submitting thread's active meter to the worker for the duration of each
  /// task, so a transaction's fan-out work is captured on whichever thread
  /// performs it. Global counters are unaffected.
  ///
  /// The meter is the transaction's single ledger: beside the per-node I/O
  /// slots it keeps event tallies that the interconnect (Network), the lock
  /// manager and the escrow journal add to the meter active on their thread
  /// (ActiveMeter()), each alongside its own global counter.
  class TxnMeter {
   public:
    enum Tally {
      kMessages = 0,         ///< Interconnect hops, self-sends included.
      kBytesSent,            ///< Bytes of those hops.
      kEscalations,          ///< Key-lock → fragment-lock escalations.
      kLockEntriesReclaimed, ///< Key-lock entries the escalations replaced.
      kEscrowOps,            ///< Group increments applied under V locks.
      kVlockUpgrades,        ///< V→X upgrades at group birth/death.
      kNumTallies,
    };

    explicit TxnMeter(int num_nodes) : nodes_(num_nodes) {}
    std::vector<NodeCounters> Snapshot() const {
      std::vector<NodeCounters> out;
      out.reserve(nodes_.size());
      for (const AtomicCounters& c : nodes_) out.push_back(c.Load());
      return out;
    }
    void Add(Tally tally, uint64_t n = 1) {
      tallies_[tally].fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t Get(Tally tally) const {
      return tallies_[tally].load(std::memory_order_relaxed);
    }

   private:
    friend class CostTracker;
    std::vector<AtomicCounters> nodes_;
    std::array<std::atomic<uint64_t>, kNumTallies> tallies_{};
  };

  /// RAII thread-local activation of a TxnMeter (restores the previous one,
  /// so scopes nest). The meter must outlive the scope *and* every executor
  /// task submitted while it is active (RunOnNodes/RunOnAllNodes barriers
  /// guarantee the latter).
  class MeterScope {
   public:
    explicit MeterScope(TxnMeter* meter) : prev_(active_meter_) {
      active_meter_ = meter;
    }
    ~MeterScope() { active_meter_ = prev_; }
    MeterScope(const MeterScope&) = delete;
    MeterScope& operator=(const MeterScope&) = delete;

   private:
    TxnMeter* prev_ = nullptr;
  };

  /// The meter active on this thread (null when none); what the executor
  /// captures at submit time.
  static TxnMeter* ActiveMeter() { return active_meter_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const CostWeights& weights() const { return weights_; }

  /// Category of a write charge, for the per-category breakdown.
  enum class WriteKind { kBase, kStructure, kView };

  void ChargeSearch(int node, uint64_t n = 1) {
    nodes_[node].searches.fetch_add(n, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].searches.fetch_add(n, std::memory_order_relaxed);
    }
    Stall(weights_.search * n);
  }
  void ChargeFetch(int node, uint64_t n = 1) {
    nodes_[node].fetches.fetch_add(n, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].fetches.fetch_add(n, std::memory_order_relaxed);
    }
    Stall(weights_.fetch * n);
  }
  /// Charges `n` INSERT-weighted writes of one category.
  void ChargeWrite(int node, WriteKind kind, uint64_t n = 1) {
    std::atomic<uint64_t> AtomicCounters::*category =
        &AtomicCounters::base_writes;
    if (kind == WriteKind::kStructure) {
      category = &AtomicCounters::structure_writes;
    } else if (kind == WriteKind::kView) {
      category = &AtomicCounters::view_writes;
    }
    nodes_[node].inserts.fetch_add(n, std::memory_order_relaxed);
    (nodes_[node].*category).fetch_add(n, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].inserts.fetch_add(n, std::memory_order_relaxed);
      (m->nodes_[node].*category).fetch_add(n, std::memory_order_relaxed);
    }
    Stall(weights_.insert * n);
  }
  /// Max over nodes of the join-compute I/O (searches + fetches only) — the
  /// paper's Figure 14 measurement.
  double ComputeResponseTime() const;
  /// Charges `hops` SENDs of `bytes` each.
  void ChargeSend(int node, uint64_t bytes, uint64_t hops = 1) {
    nodes_[node].sends.fetch_add(hops, std::memory_order_relaxed);
    nodes_[node].bytes_sent.fetch_add(bytes * hops, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].sends.fetch_add(hops, std::memory_order_relaxed);
      m->nodes_[node].bytes_sent.fetch_add(bytes * hops,
                                           std::memory_order_relaxed);
    }
    // No stall: the paper's SEND weight is ~0 against SEARCH/FETCH/INSERT.
  }
  /// Counts `n` root-to-leaf tree descents on `node`. A pure locality
  /// metric: no Stall, no contribution to IO()/TW/RT — the paper's model is
  /// unchanged; the merged-storage ablation reads this to compare layouts.
  void ChargeDescent(int node, uint64_t n = 1) {
    nodes_[node].descents.fetch_add(n, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].descents.fetch_add(n, std::memory_order_relaxed);
    }
  }
  /// Charges extra I/Os that are not one of the three primitives (e.g. the
  /// page reads/writes of an external sort); counted as fetches.
  void ChargeIOPages(int node, uint64_t pages) {
    nodes_[node].fetches.fetch_add(pages, std::memory_order_relaxed);
    if (TxnMeter* m = active_meter_) {
      m->nodes_[node].fetches.fetch_add(pages, std::memory_order_relaxed);
    }
    Stall(weights_.fetch * pages);
  }

  /// Plain snapshot of one node's counters.
  NodeCounters node(int i) const { return nodes_[i].Load(); }

  /// Sum over nodes of weighted I/O (the paper's TW).
  double TotalWorkload() const;
  /// Max over nodes of weighted I/O (response time in I/Os).
  double ResponseTime() const;
  /// Total message count across nodes.
  uint64_t TotalSends() const;
  /// Number of nodes that performed any work (I/O or sends) — used to verify
  /// the single-node / few-node / all-node locality claims.
  int NodesTouched() const;

  void Reset();

  /// Copies the current counters (for before/after diffs around a phase).
  std::vector<NodeCounters> Snapshot() const;

  /// Sleeps the charging thread for `ns` nanoseconds per weighted I/O unit
  /// it charges from now on (0 disables; the default). This turns the cost
  /// model into simulated device time: with the thread-per-node executor,
  /// wall clock then tracks ResponseTime (max over nodes) instead of TW —
  /// the effect bench_parallel_scaling measures. Counters are unaffected.
  void SetIoStallNanos(uint64_t ns) {
    stall_ns_.store(ns, std::memory_order_relaxed);
  }

  std::string ToString() const;

 private:
  void Stall(double weighted_units) const;

  static thread_local TxnMeter* active_meter_;

  CostWeights weights_;
  std::vector<AtomicCounters> nodes_;
  std::atomic<uint64_t> stall_ns_{0};
};

}  // namespace pjvm

#endif  // PJVM_COMMON_METRICS_H_
