#ifndef PJVM_NET_NETWORK_H_
#define PJVM_NET_NETWORK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/metrics.h"
#include "common/row.h"
#include "common/status.h"

namespace pjvm {

/// \brief Wire size in bytes of one hop: a 16-byte header, the destination
/// table's name, the carried rows and `rids` local row ids (the GI method's
/// "tuple + global row ids" probe).
size_t HopBytes(std::string_view table, std::span<const Row> rows,
                size_t rids = 0);

/// \brief The simulated shared-nothing interconnect: a cost device.
///
/// Every cross-node data movement in the engine is accounted through
/// Send()/Broadcast(); this is what makes the paper's SEND accounting and the
/// per-method locality claims (single-node vs few-node vs all-node)
/// measurable and testable. A hop is only its byte count (HopBytes): the
/// sending thread itself consumes the data at its destination, so the
/// network only charges and counts it.
///
/// Semantics follow the paper's model:
///  - a point-to-point send where source == destination is "conceptual": the
///    hop is counted but no SEND is charged (the dashed lines in
///    Figures 2/4/6);
///  - Broadcast() charges one SEND per destination including the sender's
///    own node, matching the naive method's L*SEND term.
///
/// The counters are relaxed atomics and SEND charges go to the atomic
/// CostTracker, so any thread may send concurrently.
class Network {
 public:
  Network(int num_nodes, CostTracker* tracker);

  /// Accounts one hop of `bytes` from `from` to `to`, charging SEND to the
  /// source unless the hop stays on-node.
  Status Send(int from, int to, size_t bytes);

  /// Accounts `bytes` sent from `from` to every node, charging `num_nodes`
  /// SENDs to the sender as in the paper's naive-method model.
  Status Broadcast(int from, size_t bytes);

  /// Hops (self-sends included) and their bytes since construction.
  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;

 private:
  bool ValidNode(int node) const { return node >= 0 && node < num_nodes_; }
  /// Counts (and, if `charge`, charges) `hops` hops of `bytes` each from
  /// `from` to nodes first_to, first_to + 1, ..., in the global counters and
  /// in the calling thread's active TxnMeter: one add per counter however
  /// many hops, plus one trace instant per hop when tracing is on.
  void Account(int from, int first_to, int hops, size_t bytes, bool charge);

  const int num_nodes_;
  CostTracker* tracker_;

  std::atomic<uint64_t> total_messages_{0};
  std::atomic<uint64_t> total_bytes_{0};
};

}  // namespace pjvm

#endif  // PJVM_NET_NETWORK_H_
