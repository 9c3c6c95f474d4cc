#ifndef PJVM_OBS_TRACE_H_
#define PJVM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace pjvm {

/// \brief One completed trace event.
///
/// Spans nest by time on their recording thread: a transaction span encloses
/// its phase spans, which enclose the per-node task spans that ran on that
/// worker. `name`/`category`/`method` are static strings (call sites pass
/// literals); anything dynamic goes in `detail`.
struct TraceSpan {
  enum class Kind : uint8_t {
    kComplete = 0,  ///< Chrome "X" event: start + duration.
    kInstant,       ///< Chrome "i" event: a point in time (e.g. one SEND).
  };

  const char* name = "";
  const char* category = "";
  Kind kind = Kind::kComplete;
  /// Tracer-assigned index of the recording thread (Chrome tid).
  int tid = 0;
  /// Data-server node the span's work belongs to; -1 for coordinator scope.
  int node = -1;
  /// Maintenance method tag (MaintenanceMethodToString) or nullptr.
  const char* method = nullptr;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Nesting depth on the recording thread at the time the span opened.
  int depth = 0;
  /// CostTracker delta charged to `node` while the span was open (per-node
  /// task spans only; see SpanGuard).
  bool has_cost = false;
  NodeCounters cost;
  /// Payload bytes (network events).
  uint64_t bytes = 0;
  /// Free-form label: view name, table, "from->to" hop, ...
  std::string detail;
};

/// \brief Process-wide low-overhead tracer with thread-local span buffers.
///
/// Hot path (Record, via SpanGuard): no locks. Each thread appends completed
/// spans to its own chunked buffer; a chunk's entries are published with a
/// release store of its count, and full chunks are linked with a release
/// store of `next`, so Snapshot()/export can read concurrently from any
/// thread with acquire loads and never see a partially-written span. The
/// buffer registry (first span of a new thread, thread naming) takes a mutex
/// — a cold path.
///
/// When disabled (the default) a SpanGuard costs one relaxed atomic load and
/// Record is never reached; cost accounting is independent of the tracer
/// either way (spans only *read* CostTracker counters).
///
/// Enable/Disable/Clear are coordinator-side operations: call them while no
/// traced work is in flight (each RunOnNodes/RunOnAllNodes call waits for its
/// own tasks, which orders their worker writes before the coordinator's next
/// step).
class Tracer {
 public:
  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops every recorded span (buffers and thread names survive). Requires
  /// quiescence: no thread may be recording concurrently.
  void Clear();

  /// Appends one completed event to the calling thread's buffer. Called by
  /// SpanGuard and by instant-event sites; callers check enabled() first.
  void Record(TraceSpan span);

  /// Names the calling thread in exported traces (e.g. "node-3 worker").
  void SetCurrentThreadName(std::string name);

  /// Copies every span recorded so far, in per-thread recording order.
  /// Safe to call concurrently with Record.
  std::vector<TraceSpan> Snapshot() const;

  /// The trace as Chrome trace-event JSON (chrome://tracing / Perfetto).
  std::string ChromeTraceJson() const;
  /// Writes ChromeTraceJson() to `path`.
  Status ExportChromeTrace(const std::string& path) const;

  /// Monotonic nanoseconds since process start (the span timebase).
  static uint64_t NowNs();

  // --- SpanGuard support (owner-thread only) ---
  int OpenSpan();    ///< Increments the thread's open depth; returns depth.
  void CloseSpan();  ///< Decrements the thread's open depth.

 private:
  struct Chunk {
    static constexpr size_t kCapacity = 256;
    TraceSpan spans[kCapacity];
    std::atomic<size_t> count{0};
    std::atomic<Chunk*> next{nullptr};

    ~Chunk() { delete next.load(std::memory_order_acquire); }
  };

  struct ThreadBuffer {
    int tid = 0;
    std::string name;  // guarded by Tracer::mu_
    std::unique_ptr<Chunk> head;
    Chunk* tail = nullptr;  // owner-thread only (coordinator during Clear)
    int depth = 0;          // owner-thread only
  };

  Tracer() = default;
  ThreadBuffer* LocalBuffer();

  static thread_local ThreadBuffer* tl_buffer_;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards buffers_ registration and names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief RAII span: records a TraceSpan covering its lifetime.
///
/// When `cost` and `node >= 0` are given, the guard snapshots that node's
/// CostTracker counters at open and close and stores the difference in the
/// span — the I/Os and sends charged inside the span. Pass the node whose
/// work the enclosed code performs (per-node task spans); coordinator-scope
/// spans omit it.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, const char* category, int node = -1,
                     CostTracker* cost = nullptr, const char* method = nullptr);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a free-form label to the span; no-op when tracing is off.
  void set_detail(std::string detail);
  /// Whether the span records (tracing was on at construction). Guard any
  /// detail that costs work to build.
  bool active() const { return active_; }

 private:
  bool active_ = false;
  CostTracker* cost_ = nullptr;
  NodeCounters start_cost_;
  TraceSpan span_;
};

/// Records an instant event (e.g. one network SEND) when tracing is on.
void TraceInstant(const char* name, const char* category, int node,
                  uint64_t bytes, std::string detail);

}  // namespace pjvm

#endif  // PJVM_OBS_TRACE_H_
