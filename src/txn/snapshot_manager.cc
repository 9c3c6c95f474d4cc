#include "txn/snapshot_manager.h"

#include <string>

#include "obs/metrics_registry.h"

namespace pjvm {

namespace {

Gauge* EpochLagGauge() {
  static Gauge* g = MetricsRegistry::Global().gauge("pjvm_snapshot_epoch_lag");
  return g;
}

}  // namespace

uint64_t SnapshotManager::AcquireRead() {
  std::lock_guard<std::mutex> lock(readers_mu_);
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  active_.insert(epoch);
  EpochLagGauge()->Set(static_cast<int64_t>(epoch - *active_.begin()));
  return epoch;
}

void SnapshotManager::ReleaseRead(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  auto it = active_.find(epoch);
  if (it != active_.end()) active_.erase(it);
  uint64_t now = epoch_.load(std::memory_order_acquire);
  EpochLagGauge()->Set(static_cast<int64_t>(
      active_.empty() ? 0 : now - *active_.begin()));
}

uint64_t SnapshotManager::MinActiveEpoch() const {
  std::lock_guard<std::mutex> lock(readers_mu_);
  if (active_.empty()) return epoch_.load(std::memory_order_acquire);
  return *active_.begin();
}

uint64_t SnapshotManager::Publish(
    const std::function<void(uint64_t)>& install) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
  install(next);
  // Release: a reader that sees `next` sees every delta installed above.
  epoch_.store(next, std::memory_order_release);
  return next;
}

void SnapshotManager::Fold(const std::function<void(uint64_t)>& fn) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  uint64_t watermark;
  {
    std::lock_guard<std::mutex> rlock(readers_mu_);
    uint64_t now = epoch_.load(std::memory_order_acquire);
    watermark = active_.empty() ? now : *active_.begin();
    EpochLagGauge()->Set(
        static_cast<int64_t>(active_.empty() ? 0 : now - watermark));
  }
  fn(watermark);
}

namespace {
thread_local SnapshotScope* tl_active_scope = nullptr;
}  // namespace

SnapshotScope::SnapshotScope(SnapshotManager* mgr)
    : mgr_(mgr),
      epoch_(mgr->AcquireRead()),
      prev_(tl_active_scope),
      span_("snapshot_read", "txn") {
  if (span_.active()) span_.set_detail("epoch=" + std::to_string(epoch_));
  tl_active_scope = this;
}

SnapshotScope::~SnapshotScope() {
  tl_active_scope = prev_;
  mgr_->ReleaseRead(epoch_);
}

ReadEpoch::ReadEpoch(SnapshotManager* mgr) : live_(mgr == nullptr) {
  if (live_) return;
  if (tl_active_scope != nullptr && tl_active_scope->manager() == mgr) {
    epoch_ = tl_active_scope->epoch();
  } else {
    scope_.emplace(mgr);
    epoch_ = scope_->epoch();
  }
}

}  // namespace pjvm
