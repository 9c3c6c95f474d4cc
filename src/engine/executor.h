#ifndef PJVM_ENGINE_EXECUTOR_H_
#define PJVM_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pjvm {

/// \brief Thread-per-node task executor: the engine's execution substrate.
///
/// One worker thread is pinned to each data server node, so per-node work in
/// fan-out phases (SelectEq/SelectRange broadcasts, InsertMany, the
/// maintainers' probe phases) runs with real parallelism. Each node's
/// fragments, indexes, and WAL are additionally guarded by the node's
/// physical latch (see Node::latch()): node i's worker is the common writer,
/// but client threads running concurrent transactions may read or write a
/// node's structures directly under the latch.
///
/// In `inline_mode` no threads are spawned and every submitted task runs
/// immediately in the caller's thread, in submission order — the sequential
/// reference semantics. Both modes drive the same call sites, which is what
/// makes cost accounting provably identical between them (see
/// tests/executor_test.cc).
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
  explicit NodeExecutor(int num_nodes, bool inline_mode = false);
  ~NodeExecutor();

  NodeExecutor(const NodeExecutor&) = delete;
  NodeExecutor& operator=(const NodeExecutor&) = delete;

  int num_nodes() const { return num_nodes_; }

  /// Runs `fn(node)` on every node's worker and waits for *this call's*
  /// tasks. Every node runs even if another fails; the first non-OK status
  /// in node order is returned, so the outcome is deterministic regardless
  /// of scheduling. Safe to call from multiple client threads concurrently.
  Status RunOnAllNodes(const std::function<Status(int)>& fn);

  /// Same, restricted to `nodes` (first failure in the listed order).
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
    std::condition_variable cv;
    size_t remaining = 0;
  };

  void WorkerLoop(int node);
  /// Enqueues `fn` for node `node`'s worker.
  void SubmitToNode(int node, std::function<void()> fn);
  Status RunBatch(const std::vector<int>& nodes,
                  const std::function<Status(int)>& fn);

  const int num_nodes_;
  const bool inline_mode_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signaled on submit and on shutdown
  std::vector<std::deque<std::function<void()>>> queues_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace pjvm

#endif  // PJVM_ENGINE_EXECUTOR_H_
