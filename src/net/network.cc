#include "net/network.h"

#include <string>

#include "obs/trace.h"

namespace pjvm {

Network::Network(int num_nodes, CostTracker* tracker)
    : num_nodes_(num_nodes),
      tracker_(tracker),
      pair_counts_(static_cast<size_t>(num_nodes) * num_nodes) {}

void Network::Account(int from, int to, size_t bytes, bool charge) {
  pair_counts_[from * num_nodes_ + to].fetch_add(1, std::memory_order_relaxed);
  total_messages_.fetch_add(1, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (CostTracker::TxnMeter* meter = CostTracker::ActiveMeter()) {
    meter->Add(CostTracker::TxnMeter::kMessages);
    meter->Add(CostTracker::TxnMeter::kBytesSent, bytes);
  }
  if (charge && tracker_ != nullptr) tracker_->ChargeSend(from, bytes);
  if (Tracer::Global().enabled()) {
    TraceInstant("send", "net", from, bytes,
                 std::to_string(from) + "->" + std::to_string(to));
  }
}

Status Network::Send(const Message& msg) {
  if (!ValidNode(msg.from)) {
    return Status::InvalidArgument("network: bad source node " +
                                   std::to_string(msg.from));
  }
  if (!ValidNode(msg.to)) {
    return Status::InvalidArgument("network: bad destination node " +
                                   std::to_string(msg.to));
  }
  Account(msg.from, msg.to, msg.ByteSize(), /*charge=*/msg.from != msg.to);
  return Status::OK();
}

Status Network::Broadcast(int from, const Message& msg) {
  if (!ValidNode(from)) {
    return Status::InvalidArgument("network: bad broadcast source");
  }
  // The paper charges the naive method L*SEND for "sending tuple to each
  // node", i.e. the self-copy is charged too.
  const size_t bytes = msg.ByteSize();
  for (int to = 0; to < num_nodes_; ++to) {
    Account(from, to, bytes, /*charge=*/true);
  }
  return Status::OK();
}

uint64_t Network::PairCount(int from, int to) const {
  return pair_counts_[from * num_nodes_ + to].load(std::memory_order_relaxed);
}

uint64_t Network::TotalMessages() const {
  return total_messages_.load(std::memory_order_relaxed);
}

uint64_t Network::TotalBytes() const {
  return total_bytes_.load(std::memory_order_relaxed);
}

void Network::ResetCounters() {
  for (std::atomic<uint64_t>& count : pair_counts_) {
    count.store(0, std::memory_order_relaxed);
  }
  total_messages_.store(0, std::memory_order_relaxed);
  total_bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace pjvm
