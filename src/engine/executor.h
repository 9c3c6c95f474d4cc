#ifndef PJVM_ENGINE_EXECUTOR_H_
#define PJVM_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace pjvm {

/// \brief Per-node task executor: the engine's execution substrate.
///
/// Each data server node has one worker thread draining its own FIFO queue
/// (own mutex, condvar and deque, so a submit wakes only that node's worker),
/// and per-node work in fan-out phases (SelectEq/SelectRange broadcasts,
/// InsertMany, the maintainers' probe phases, overlapped 2PC prepare forces)
/// runs with real parallelism. Each node's fragments, indexes, and WAL are
/// additionally guarded by the node's physical latch (see Node::latch()):
/// client threads running concurrent transactions may read or write a node's
/// structures directly under the latch.
///
/// **The caller runs the first listed node.** A batch submits every node but
/// the first to its worker, runs the first on the calling thread, then waits
/// for the rest — so a single-node batch never leaves the caller and pays no
/// handoff. The caller-run task is marked as executor work for its duration
/// (WorkerContext::is_executor_worker), so it never parks on a transaction
/// lock, exactly like a worker task. Which thread runs a task never changes
/// what it charges (see tests/executor_test.cc).
///
/// Orchestration protocol: **multiple coordinating threads may call
/// RunOnNodes/RunOnAllNodes concurrently** — each call waits on its own
/// completion record, not on a global barrier, so one client's fan-out never
/// blocks on another's. Tasks themselves must never submit or wait (no
/// nesting), and must never block on transaction locks (a parked task stalls
/// the node's whole FIFO queue — the lock manager enforces this through
/// WorkerContext).
class NodeExecutor {
 public:
  explicit NodeExecutor(int num_nodes);
  ~NodeExecutor();

  NodeExecutor(const NodeExecutor&) = delete;
  NodeExecutor& operator=(const NodeExecutor&) = delete;

  /// Runs `fn(node)` for every node (node 0 on the caller, the rest on their
  /// workers) and waits for *this call's* tasks. Every node runs even if
  /// another fails; the first non-OK status in node order is returned, so the
  /// outcome is deterministic regardless of scheduling. Safe to call from
  /// multiple client threads concurrently.
  Status RunOnAllNodes(const std::function<Status(int)>& fn);

  /// Same, restricted to `nodes` (first failure in the listed order); the
  /// first listed node runs on the caller. An empty list returns OK.
  Status RunOnNodes(const std::vector<int>& nodes,
                    const std::function<Status(int)>& fn);

  /// Drains outstanding tasks, then stops and joins every worker.
  /// Idempotent; called by the destructor (and by ~ParallelSystem before the
  /// nodes the workers reference are torn down).
  void Shutdown();

 private:
  /// Per-call completion record for RunOnNodes/RunOnAllNodes: each
  /// coordinating thread waits for its own batch, never for another's.
  struct Batch {
    std::mutex mu;
    std::condition_variable cv;  // signaled when `remaining` reaches 0
    size_t remaining = 0;
  };

  /// One node's share of a batch, queued for that node's worker. It points
  /// into the submitting RunOnNodes frame, which outlives it: the frame waits
  /// until every task has signaled its batch.
  struct Task {
    const std::function<Status(int)>* fn;
    Status* status;
    /// The submitter's transaction meter (if any): the worker activates it
    /// for the task's duration, so the transaction's fan-out charges land in
    /// its own meter no matter which thread runs them.
    CostTracker::TxnMeter* meter;
    Batch* batch;
  };

  /// One node's task queue.
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;  // signaled on submit and on shutdown
    std::deque<Task> tasks;
    bool stopping = false;
  };

  void WorkerLoop(int node);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
};

}  // namespace pjvm

#endif  // PJVM_ENGINE_EXECUTOR_H_
