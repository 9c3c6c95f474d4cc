#include "engine/executor.h"

#include "common/metrics.h"
#include "common/worker_context.h"
#include "obs/trace.h"

namespace pjvm {

NodeExecutor::NodeExecutor(int num_nodes, bool inline_mode)
    : num_nodes_(num_nodes), inline_mode_(inline_mode), queues_(num_nodes) {
  if (inline_mode_) return;
  workers_.reserve(num_nodes_);
  for (int i = 0; i < num_nodes_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

NodeExecutor::~NodeExecutor() { Shutdown(); }

void NodeExecutor::WorkerLoop(int node) {
  // Tasks drained by this thread must never park on a transaction lock: a
  // parked task blocks the node's whole FIFO queue, possibly including
  // tasks of the very transaction that holds the contended lock. The lock
  // manager consults this flag and aborts instead of waiting.
  WorkerContext::is_executor_worker = true;
  if (Tracer::Global().enabled()) {
    Tracer::Global().SetCurrentThreadName("node-" + std::to_string(node) +
                                          " worker");
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return stopping_ || !queues_[node].empty(); });
    if (queues_[node].empty()) {
      if (stopping_) return;  // Drained: safe to exit.
      continue;
    }
    std::function<void()> fn = std::move(queues_[node].front());
    queues_[node].pop_front();
    lock.unlock();
    fn();
    lock.lock();
  }
}

void NodeExecutor::SubmitToNode(int node, std::function<void()> fn) {
  // The submitter's transaction meter (if any) travels with the task: the
  // worker activates it for the task's duration, so the transaction's
  // fan-out charges land in its own meter no matter which thread runs them.
  CostTracker::TxnMeter* meter = CostTracker::ActiveMeter();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[node].push_back([meter, fn = std::move(fn)] {
      CostTracker::MeterScope scope(meter);
      fn();
    });
  }
  work_cv_.notify_all();
}

Status NodeExecutor::RunBatch(const std::vector<int>& nodes,
                              const std::function<Status(int)>& fn) {
  std::vector<Status> statuses(nodes.size(), Status::OK());
  if (inline_mode_) {
    for (size_t i = 0; i < nodes.size(); ++i) statuses[i] = fn(nodes[i]);
  } else {
    // Shared with the worker-side wrappers: the batch must outlive this
    // frame if a worker is still finishing its decrement when we wake.
    auto batch = std::make_shared<Batch>();
    batch->remaining = nodes.size();
    for (size_t i = 0; i < nodes.size(); ++i) {
      int node = nodes[i];
      SubmitToNode(node, [&statuses, &fn, batch, node, i] {
        statuses[i] = fn(node);
        {
          std::lock_guard<std::mutex> lock(batch->mu);
          --batch->remaining;
        }
        batch->cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] { return batch->remaining == 0; });
  }
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

Status NodeExecutor::RunOnAllNodes(const std::function<Status(int)>& fn) {
  std::vector<int> nodes(num_nodes_);
  for (int i = 0; i < num_nodes_; ++i) nodes[i] = i;
  return RunBatch(nodes, fn);
}

Status NodeExecutor::RunOnNodes(const std::vector<int>& nodes,
                                const std::function<Status(int)>& fn) {
  return RunBatch(nodes, fn);
}

void NodeExecutor::Shutdown() {
  if (inline_mode_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

}  // namespace pjvm
