#include "txn/txn_manager.h"

#include <iterator>
#include <utility>

namespace pjvm {

uint64_t TxnManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_txn_id_++;
  records_[id];
  return id;
}

TxnState TxnManager::state(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The durable decision outlives the working state: a forgotten committed
  // transaction still reads as committed.
  if (committed_ids_.count(txn_id) > 0) return TxnState::kCommitted;
  auto it = records_.find(txn_id);
  if (it == records_.end()) return TxnState::kAborted;
  return it->second.state;
}

bool TxnManager::IsCommitted(uint64_t txn_id) const {
  if (txn_id == kAutoCommitTxnId) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return committed_ids_.count(txn_id) > 0;
}

bool TxnManager::HasActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, record] : records_) {
    if (record.state == TxnState::kActive ||
        record.state == TxnState::kPreparing) {
      return true;
    }
  }
  return false;
}

Status TxnManager::MarkPreparing(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it == records_.end() || it->second.state != TxnState::kActive) {
    return Status::Aborted("txn " + std::to_string(txn_id) + " is not active");
  }
  it->second.state = TxnState::kPreparing;
  return Status::OK();
}

Status TxnManager::LogCommitDecision(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it == records_.end() || (it->second.state != TxnState::kActive &&
                               it->second.state != TxnState::kPreparing)) {
    return Status::Aborted("txn " + std::to_string(txn_id) +
                           " cannot commit from its current state");
  }
  it->second.state = TxnState::kCommitted;
  committed_ids_.insert(txn_id);
  return Status::OK();
}

Status TxnManager::MarkAborted(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Check the durable decision set, not the records: the working state of a
  // committed transaction may already have been forgotten.
  if (committed_ids_.count(txn_id) > 0) {
    return Status::Internal("txn " + std::to_string(txn_id) +
                            " already committed; cannot abort");
  }
  records_[txn_id].state = TxnState::kAborted;
  return Status::OK();
}

void TxnManager::RecordWrite(uint64_t txn_id, TxnWrite write) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it == records_.end()) return;
  it->second.write_set.participants.insert(write.node);
  it->second.write_set.writes.push_back(std::move(write));
}

void TxnManager::RecordWrites(uint64_t txn_id, std::vector<TxnWrite> writes) {
  if (writes.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it == records_.end()) return;
  TxnWriteSet& write_set = it->second.write_set;
  write_set.participants.insert(writes.front().node);
  write_set.writes.insert(write_set.writes.end(),
                          std::make_move_iterator(writes.begin()),
                          std::make_move_iterator(writes.end()));
}

void TxnManager::AddParticipant(uint64_t txn_id, int node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it != records_.end()) it->second.write_set.participants.insert(node);
}

TxnWriteSet TxnManager::TakeWriteSet(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(txn_id);
  if (it == records_.end()) return {};
  return std::exchange(it->second.write_set, {});
}

void TxnManager::Forget(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.erase(txn_id);
}

size_t TxnManager::PruneCommittedBelow(uint64_t low_water) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t before = committed_ids_.size();
  committed_ids_.erase(committed_ids_.begin(),
                       committed_ids_.lower_bound(low_water));
  return before - committed_ids_.size();
}

uint64_t TxnManager::next_txn_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_txn_id_;
}

size_t TxnManager::TrackedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void TxnManager::CrashAndRecover() {
  std::lock_guard<std::mutex> lock(mu_);
  // Presumed abort: in-flight transactions simply vanish (state() reports
  // kAborted for untracked ids); their write sets die with them.
  records_.clear();
  failure_.store(FailurePoint::kNone);
}

}  // namespace pjvm
