#include "engine/executor.h"

#include "common/worker_context.h"
#include "obs/trace.h"

namespace pjvm {

NodeExecutor::NodeExecutor(int num_nodes) {
  for (int i = 0; i < num_nodes; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  for (int i = 0; i < num_nodes; ++i) {
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
  Queue& q = *queues_[node];
  std::unique_lock<std::mutex> lock(q.mu);
  for (;;) {
    q.cv.wait(lock, [&] { return q.stopping || !q.tasks.empty(); });
    if (q.tasks.empty()) return;  // Stopping and drained: safe to exit.
    Task task = q.tasks.front();
    q.tasks.pop_front();
    lock.unlock();
    {
      CostTracker::MeterScope scope(task.meter);
      *task.status = (*task.fn)(node);
    }
    {
      // Signal under the batch mutex: the waiting caller cannot return and
      // free the batch until this thread has let go of it.
      std::lock_guard<std::mutex> batch_lock(task.batch->mu);
      if (--task.batch->remaining == 0) task.batch->cv.notify_one();
    }
    lock.lock();
  }
}

Status NodeExecutor::RunOnNodes(const std::vector<int>& nodes,
                                const std::function<Status(int)>& fn) {
  if (nodes.empty()) return Status::OK();
  std::vector<Status> statuses(nodes.size(), Status::OK());
  Batch batch;
  batch.remaining = nodes.size() - 1;
  CostTracker::TxnMeter* meter = CostTracker::ActiveMeter();
  for (size_t i = 1; i < nodes.size(); ++i) {
    Queue& q = *queues_[nodes[i]];
    {
      std::lock_guard<std::mutex> lock(q.mu);
      q.tasks.push_back(Task{&fn, &statuses[i], meter, &batch});
    }
    q.cv.notify_one();  // wakes this node's worker only
  }
  // The caller runs the first node itself, under the same never-park rule
  // as a worker (restored even when the task fails); its own meter is
  // already active.
  const bool was_worker = WorkerContext::is_executor_worker;
  WorkerContext::is_executor_worker = true;
  statuses[0] = fn(nodes[0]);
  WorkerContext::is_executor_worker = was_worker;
  {
    std::unique_lock<std::mutex> lock(batch.mu);
    batch.cv.wait(lock, [&] { return batch.remaining == 0; });
  }
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

Status NodeExecutor::RunOnAllNodes(const std::function<Status(int)>& fn) {
  std::vector<int> nodes(queues_.size());
  for (size_t i = 0; i < nodes.size(); ++i) nodes[i] = static_cast<int>(i);
  return RunOnNodes(nodes, fn);
}

void NodeExecutor::Shutdown() {
  // Idempotent without a guard: a repeat call re-flags drained queues and
  // joins nothing.
  for (auto& q : queues_) {
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->stopping = true;
    }
    q->cv.notify_one();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

}  // namespace pjvm
