#include "net/network.h"

#include <string>

#include "obs/trace.h"
#include "storage/row_id.h"

namespace pjvm {

size_t HopBytes(std::string_view table, std::span<const Row> rows,
                size_t rids) {
  size_t bytes = 16 + table.size() + rids * sizeof(LocalRowId);
  for (const Row& row : rows) bytes += RowByteSize(row);
  return bytes;
}

Network::Network(int num_nodes, CostTracker* tracker)
    : num_nodes_(num_nodes), tracker_(tracker) {}

void Network::Account(int from, int first_to, int hops, size_t bytes,
                      bool charge) {
  const uint64_t n = static_cast<uint64_t>(hops);
  total_messages_.fetch_add(n, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes * n, std::memory_order_relaxed);
  if (CostTracker::TxnMeter* meter = CostTracker::ActiveMeter()) {
    meter->Add(CostTracker::TxnMeter::kMessages, n);
    meter->Add(CostTracker::TxnMeter::kBytesSent, bytes * n);
  }
  if (charge && tracker_ != nullptr) tracker_->ChargeSend(from, bytes, n);
  if (Tracer::Global().enabled()) {
    for (int to = first_to; to < first_to + hops; ++to) {
      TraceInstant("send", "net", from, bytes,
                   std::to_string(from) + "->" + std::to_string(to));
    }
  }
}

Status Network::Send(int from, int to, size_t bytes) {
  if (!ValidNode(from)) {
    return Status::InvalidArgument("network: bad source node " +
                                   std::to_string(from));
  }
  if (!ValidNode(to)) {
    return Status::InvalidArgument("network: bad destination node " +
                                   std::to_string(to));
  }
  Account(from, to, 1, bytes, /*charge=*/from != to);
  return Status::OK();
}

Status Network::Broadcast(int from, size_t bytes) {
  if (!ValidNode(from)) {
    return Status::InvalidArgument("network: bad broadcast source");
  }
  // The paper charges the naive method L*SEND for "sending tuple to each
  // node", i.e. the self-copy is charged too. The L hops are accounted in
  // one step.
  Account(from, 0, num_nodes_, bytes, /*charge=*/true);
  return Status::OK();
}

uint64_t Network::TotalMessages() const {
  return total_messages_.load(std::memory_order_relaxed);
}

uint64_t Network::TotalBytes() const {
  return total_bytes_.load(std::memory_order_relaxed);
}

}  // namespace pjvm
