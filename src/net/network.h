#ifndef PJVM_NET_NETWORK_H_
#define PJVM_NET_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/message.h"

namespace pjvm {

/// \brief The simulated shared-nothing interconnect: a cost device.
///
/// Every cross-node data movement in the engine is accounted through
/// Send()/Broadcast(); this is what makes the paper's SEND accounting and the
/// per-method locality claims (single-node vs few-node vs all-node)
/// measurable and testable. Nothing is queued: the sending thread itself
/// consumes every message at its destination, so the network only charges
/// and counts it.
///
/// Semantics follow the paper's model:
///  - a point-to-point send where source == destination is "conceptual": the
///    message is counted but no SEND is charged (the dashed lines in
///    Figures 2/4/6);
///  - Broadcast() charges one SEND per destination including the sender's
///    own node, matching the naive method's L*SEND term.
///
/// The counters are relaxed atomics and SEND charges go to the atomic
/// CostTracker, so any thread may send concurrently.
class Network {
 public:
  Network(int num_nodes, CostTracker* tracker);

  int num_nodes() const { return num_nodes_; }

  /// Accounts one hop of `msg` from `msg.from` to `msg.to`, charging SEND to
  /// the source unless the message stays on-node.
  Status Send(const Message& msg);

  /// Accounts `msg` sent from `from` to every node, charging `num_nodes`
  /// SENDs to the sender as in the paper's naive-method model.
  Status Broadcast(int from, const Message& msg);

  /// Messages sent from i to j since construction/reset (self-sends are
  /// counted here even though they cost nothing).
  uint64_t PairCount(int from, int to) const;
  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;

  void ResetCounters();

 private:
  bool ValidNode(int node) const { return node >= 0 && node < num_nodes_; }
  /// Counts (and, if `charge`, charges) one hop of `bytes` from -> to, in
  /// the global counters and in the calling thread's active TxnMeter.
  void Account(int from, int to, size_t bytes, bool charge);

  const int num_nodes_;
  CostTracker* tracker_;

  std::vector<std::atomic<uint64_t>> pair_counts_;
  std::atomic<uint64_t> total_messages_{0};
  std::atomic<uint64_t> total_bytes_{0};
};

}  // namespace pjvm

#endif  // PJVM_NET_NETWORK_H_
