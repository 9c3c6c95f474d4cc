#ifndef PJVM_COMMON_WORKER_CONTEXT_H_
#define PJVM_COMMON_WORKER_CONTEXT_H_

namespace pjvm {

/// \brief Thread-local execution context consulted by the lock manager to
/// decide whether a conflicting Acquire may block.
///
/// Two kinds of threads must never park on a transaction lock:
///
///  * **Node-executor tasks.** Each node runs one worker draining a FIFO
///    queue; a parked task blocks every queued task behind it, including
///    tasks of the very transaction that holds the contended lock — a
///    scheduling deadlock the wait-die order cannot see. A batch's first
///    node, which its calling thread runs itself, follows the same rule.
///  * **Any thread holding a node latch.** The physical latch serialises
///    fragment/WAL access; the lock holder may need that latch to make
///    progress toward its release.
///
/// In these contexts a would-wait decision degrades to an immediate
/// Aborted (as every conflict does when the lock wait timeout is 0), which
/// the maintenance retry loop absorbs. Client threads outside any latch may
/// block normally.
struct WorkerContext {
  /// Set for the lifetime of a NodeExecutor worker thread, and on a calling
  /// thread while it runs its batch's first node.
  static inline thread_local bool is_executor_worker = false;
  /// Number of node latches currently held by this thread.
  static inline thread_local int latch_depth = 0;

  /// True when a blocking lock wait would risk a scheduling deadlock.
  static bool MustNotBlock() {
    return is_executor_worker || latch_depth > 0;
  }
};

/// RAII marker for latch scopes (increments on acquire, decrements on
/// release). Pair one of these with every node-latch guard.
struct LatchDepthScope {
  LatchDepthScope() { ++WorkerContext::latch_depth; }
  ~LatchDepthScope() { --WorkerContext::latch_depth; }
  LatchDepthScope(const LatchDepthScope&) = delete;
  LatchDepthScope& operator=(const LatchDepthScope&) = delete;
};

}  // namespace pjvm

#endif  // PJVM_COMMON_WORKER_CONTEXT_H_
