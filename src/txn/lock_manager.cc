#include "txn/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/worker_context.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {

const char* LockModeToString(LockMode mode) {
  switch (mode) {
    case LockMode::kShared:
      return "S";
    case LockMode::kExclusive:
      return "X";
    case LockMode::kValue:
      return "V";
  }
  return "?";
}

std::string LockId::ToString() const {
  std::string out =
      "node" + std::to_string(node) + "/table" + std::to_string(table);
  if (whole_table) {
    out += "/*";
  } else {
    out += "/#" + std::to_string(key_hash);
  }
  return out;
}

const LockManager::Shard& LockManager::ShardOf(const LockId& id) const {
  // Fragment-granular: every lock of one (node, table) pair maps to the same
  // shard, so table↔key coverage checks and release-wakeups stay single-shard.
  const uint64_t h = ((static_cast<uint64_t>(id.table) << 32) ^
                      static_cast<uint32_t>(id.node)) *
                     0x9e3779b97f4a7c15ULL;
  return shards_[(h >> 32) % shards_.size()];
}

void LockManager::CollectConflicts(const Shard& shard, uint64_t txn_id,
                                   const LockId& id, LockMode mode,
                                   std::set<uint64_t>* out) {
  auto collect_from = [&](const LockId& other_id) {
    auto it = shard.locks.find(other_id);
    if (it == shard.locks.end()) return;
    for (const auto& [holder, held_mode] : it->second.holders) {
      if (holder == txn_id) continue;
      if (!Compatible(held_mode, mode)) out->insert(holder);
    }
  };

  // Direct conflicts on the same resource.
  collect_from(id);
  if (id.whole_table) {
    // A table lock conflicts with any key lock of the fragment held by
    // someone else (scan the fragment's key entries).
    LockId lo{id.node, id.table, 0, false};
    for (auto it = shard.locks.lower_bound(lo); it != shard.locks.end(); ++it) {
      if (it->first.node != id.node || it->first.table != id.table) break;
      if (it->first.whole_table) continue;
      collect_from(it->first);
    }
  } else {
    // A key lock conflicts with a fragment-level lock.
    collect_from(LockId::Table(id.node, id.table));
  }
}

Status LockManager::ConflictAborted(uint64_t txn_id, const LockId& id,
                                    LockMode mode,
                                    const std::set<uint64_t>& holders,
                                    const char* why) {
  std::string msg = std::string("lock conflict on ") + id.ToString() +
                    ": txn " + std::to_string(txn_id) + " wants " +
                    LockModeToString(mode) + ", held by txn " +
                    std::to_string(*holders.begin()) + " (" + why + ")";
  return Status::Aborted(std::move(msg));
}

void LockManager::Grant(Shard& shard, uint64_t txn_id, const LockId& id,
                        LockMode mode) {
  static Counter* vlock_grants =
      MetricsRegistry::Global().counter("pjvm_vlock_grants");
  static Counter* vlock_upgrades =
      MetricsRegistry::Global().counter("pjvm_vlock_upgrades");
  Entry& entry = shard.locks[id];
  auto [holder, inserted] = entry.holders.try_emplace(txn_id, mode);
  if (!inserted) {
    LockMode joined = ModeJoin(holder->second, mode);
    if (holder->second == LockMode::kValue && joined == LockMode::kExclusive) {
      // V→X escalation (group birth/death): the grant implies we are the
      // sole holder, since the conflict loop drained the other V holders.
      vlock_upgrades->Increment();
    }
    holder->second = joined;
  } else {
    if (mode == LockMode::kValue) vlock_grants->Increment();
    ++shard.entry_holders;
    shard.peak_entry_holders =
        std::max(shard.peak_entry_holders, shard.entry_holders);
    if (!id.whole_table) {
      ++shard.key_counts[FragKey{txn_id, id.node, id.table}];
    }
  }
  shard.by_txn[txn_id].insert(id);
}

void LockManager::SetAge(uint64_t txn_id, uint64_t age) {
  std::lock_guard<std::mutex> lock(age_mu_);
  ages_[txn_id] = age;
}

uint64_t LockManager::AgeOf(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(age_mu_);
  auto it = ages_.find(txn_id);
  return it == ages_.end() ? txn_id : it->second;
}

Status LockManager::Acquire(uint64_t txn_id, const LockId& id, LockMode mode) {
  static Counter* shard_contention =
      MetricsRegistry::Global().counter("pjvm_lock_shard_contention");

  Shard& shard = ShardOf(id);
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard_contention->Increment();
    lock.lock();
  }
  // Already held at sufficient strength?
  auto it = shard.locks.find(id);
  if (it != shard.locks.end()) {
    auto held = it->second.holders.find(txn_id);
    if (held != it->second.holders.end()) {
      if (held->second == LockMode::kExclusive || mode == held->second) {
        return Status::OK();
      }
      // Upgrade request (S→X, V→X, or a cross-mode S/V mix that joins to
      // X): proceeds through the same conflict loop; grantable once no
      // *other* transaction holds a conflicting mode.
    }
  }
  // Coverage fast path: a key request answered by the fragment lock an
  // escalated (or scanning) transaction already holds — no new entry.
  if (!id.whole_table) {
    auto frag = shard.locks.find(LockId::Table(id.node, id.table));
    if (frag != shard.locks.end()) {
      auto held = frag->second.holders.find(txn_id);
      if (held != frag->second.holders.end() &&
          (held->second == LockMode::kExclusive || mode == held->second)) {
        return Status::OK();
      }
    }
  }

  Status st = AcquireLocked(lock, shard, txn_id, id, mode);
  if (!st.ok() || id.whole_table || escalation_threshold_ <= 0) return st;
  return MaybeEscalateLocked(lock, shard, txn_id, id);
}

Status LockManager::AcquireLocked(std::unique_lock<std::mutex>& lock,
                                  Shard& shard, uint64_t txn_id,
                                  const LockId& id, LockMode mode) {
  static Counter* waits =
      MetricsRegistry::Global().counter("pjvm_lock_waits");
  static Counter* kills =
      MetricsRegistry::Global().counter("pjvm_lock_deadlock_kills");
  static Counter* timeouts =
      MetricsRegistry::Global().counter("pjvm_lock_wait_timeouts");
  static LatencyHistogram* wait_ns =
      MetricsRegistry::Global().histogram("pjvm_lock_wait_ns");

  const bool may_block =
      wait_timeout_ms_ > 0 && !WorkerContext::MustNotBlock();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_timeout_ms_);
  std::optional<SpanGuard> wait_span;
  uint64_t wait_start_ns = 0;
  bool waited = false;

  auto finish_wait = [&]() {
    if (!waited) return;
    wait_ns->Record(Tracer::NowNs() - wait_start_ns);
    wait_span.reset();
  };

  std::set<uint64_t> conflicts;
  for (;;) {
    conflicts.clear();
    CollectConflicts(shard, txn_id, id, mode, &conflicts);
    if (conflicts.empty()) {
      Grant(shard, txn_id, id, mode);
      finish_wait();
      return Status::OK();
    }
    uint64_t oldest_conflict = UINT64_MAX;
    for (uint64_t holder : conflicts) {
      oldest_conflict = std::min(oldest_conflict, AgeOf(holder));
    }
    if (oldest_conflict < AgeOf(txn_id)) {
      // Wait-die: die if ANY conflicting holder is older (by lineage age,
      // see SetAge) — the re-check after each wakeup means a newly arrived
      // older holder kills a sleeping waiter too.
      kills->Increment();
      finish_wait();
      return ConflictAborted(txn_id, id, mode, conflicts, "wait-die kill");
    }
    if (!may_block) {
      finish_wait();
      return ConflictAborted(txn_id, id, mode, conflicts,
                             "would-wait in non-blocking context");
    }
    if (!waited) {
      waited = true;
      waits->Increment();
      wait_start_ns = Tracer::NowNs();
      if (Tracer::Global().enabled()) {
        wait_span.emplace("lock_wait", "txn", id.node);
        wait_span->set_detail(id.ToString());
      }
    }
    // Park on the entry's condition variable. The shared_ptr keeps the cv
    // alive even if the entry is erased while we sleep (Clear, or the last
    // holder of a covering entry releasing).
    Entry& entry = shard.locks[id];
    if (!entry.waiters) {
      entry.waiters = std::make_shared<std::condition_variable>();
    }
    std::shared_ptr<std::condition_variable> cv = entry.waiters;
    ++entry.waiter_count;
    std::cv_status wake = cv->wait_until(lock, deadline);
    // The map may have changed while parked; re-find before bookkeeping.
    auto it2 = shard.locks.find(id);
    if (it2 != shard.locks.end() && it2->second.waiters == cv) {
      --it2->second.waiter_count;
      if (it2->second.holders.empty() && it2->second.waiter_count == 0) {
        shard.locks.erase(it2);
      }
    }
    if (wake == std::cv_status::timeout) {
      conflicts.clear();
      CollectConflicts(shard, txn_id, id, mode, &conflicts);
      if (conflicts.empty()) {
        Grant(shard, txn_id, id, mode);
        finish_wait();
        return Status::OK();
      }
      timeouts->Increment();
      finish_wait();
      return ConflictAborted(txn_id, id, mode, conflicts, "wait timeout");
    }
  }
}

Status LockManager::MaybeEscalateLocked(std::unique_lock<std::mutex>& lock,
                                        Shard& shard, uint64_t txn_id,
                                        const LockId& id) {
  static Counter* escalations =
      MetricsRegistry::Global().counter("pjvm_lock_escalations");
  static Counter* reclaimed_total =
      MetricsRegistry::Global().counter("pjvm_lock_entries_reclaimed");

  const FragKey frag_key{txn_id, id.node, id.table};
  {
    auto count = shard.key_counts.find(frag_key);
    if (count == shard.key_counts.end() ||
        count->second < static_cast<size_t>(escalation_threshold_)) {
      return Status::OK();
    }
  }

  // Snapshot the fragment's key locks and derive the escalated mode: the
  // fragment lock must be at least as strong as the join of every key lock
  // it replaces (all-S → S, all-V → V, any mix or any X → X).
  std::optional<LockMode> folded;
  std::vector<LockId> keys;
  auto by_txn = shard.by_txn.find(txn_id);
  if (by_txn != shard.by_txn.end()) {
    const LockId lo{id.node, id.table, 0, false};
    for (auto it = by_txn->second.lower_bound(lo);
         it != by_txn->second.end(); ++it) {
      if (it->node != id.node || it->table != id.table) break;
      if (it->whole_table) continue;
      keys.push_back(*it);
      auto entry = shard.locks.find(*it);
      if (entry != shard.locks.end()) {
        auto held = entry->second.holders.find(txn_id);
        if (held != entry->second.holders.end()) {
          folded = folded ? ModeJoin(*folded, held->second) : held->second;
        }
      }
    }
  }
  const LockMode mode = folded.value_or(LockMode::kShared);

  // The fragment acquire runs the full wait-die loop and may park (it keeps
  // the key locks while waiting, so the transaction never loses coverage).
  // A kill, timeout, or non-blocking would-wait aborts the Acquire that
  // triggered escalation; the caller's abort-and-retry path takes over.
  Status st =
      AcquireLocked(lock, shard, txn_id, LockId::Table(id.node, id.table),
                    mode);
  if (!st.ok()) return st;

  // Swap: drop the key entries the fragment lock now covers, waking their
  // waiters so they re-evaluate (they will now conflict with the fragment
  // lock and re-park or die).
  size_t reclaimed = 0;
  for (const LockId& key : keys) {
    auto entry = shard.locks.find(key);
    if (entry != shard.locks.end() && entry->second.holders.erase(txn_id)) {
      ++reclaimed;
      --shard.entry_holders;
      if (entry->second.holders.empty() &&
          entry->second.waiter_count == 0) {
        shard.locks.erase(entry);
      } else if (entry->second.waiter_count > 0 && entry->second.waiters) {
        entry->second.waiters->notify_all();
      }
    }
    by_txn->second.erase(key);
  }
  // Re-find the count: another thread of this transaction may have granted
  // further key locks in this fragment while we were parked above; those
  // stay as key entries and keep their count toward a future escalation.
  auto count = shard.key_counts.find(frag_key);
  if (count != shard.key_counts.end()) {
    if (count->second <= reclaimed) {
      shard.key_counts.erase(count);
    } else {
      count->second -= reclaimed;
    }
  }

  escalations->Increment();
  reclaimed_total->Increment(reclaimed);
  if (CostTracker::TxnMeter* meter = CostTracker::ActiveMeter()) {
    meter->Add(CostTracker::TxnMeter::kEscalations);
    meter->Add(CostTracker::TxnMeter::kLockEntriesReclaimed, reclaimed);
  }
  return Status::OK();
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_txn.find(txn_id);
    if (it == shard.by_txn.end()) continue;
    for (const LockId& id : it->second) {
      auto entry = shard.locks.find(id);
      if (entry != shard.locks.end()) {
        if (entry->second.holders.erase(txn_id)) --shard.entry_holders;
        if (entry->second.holders.empty() &&
            entry->second.waiter_count == 0) {
          shard.locks.erase(entry);
        }
      }
      // Wake waiters of every entry on this (node, table): releasing a key
      // lock can unblock a fragment-lock waiter and vice versa, and waiters
      // park on the entry they requested, not the one they conflicted with.
      LockId lo{id.node, id.table, 0, false};
      for (auto w = shard.locks.lower_bound(lo); w != shard.locks.end(); ++w) {
        if (w->first.node != id.node || w->first.table != id.table) break;
        if (w->second.waiter_count > 0 && w->second.waiters) {
          w->second.waiters->notify_all();
        }
      }
    }
    shard.by_txn.erase(it);
    shard.key_counts.erase(
        shard.key_counts.lower_bound(
            FragKey{txn_id, std::numeric_limits<int>::min(), 0}),
        shard.key_counts.lower_bound(
            FragKey{txn_id + 1, std::numeric_limits<int>::min(), 0}));
  }
  std::lock_guard<std::mutex> ag(age_mu_);
  ages_.erase(txn_id);
}

void LockManager::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [id, entry] : shard.locks) {
      if (entry.waiter_count > 0 && entry.waiters) {
        entry.waiters->notify_all();
      }
    }
    shard.locks.clear();
    shard.by_txn.clear();
    shard.key_counts.clear();
    shard.entry_holders = 0;
  }
  std::lock_guard<std::mutex> ag(age_mu_);
  ages_.clear();
}

size_t LockManager::HeldCount(uint64_t txn_id) const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_txn.find(txn_id);
    if (it != shard.by_txn.end()) count += it->second.size();
  }
  return count;
}

bool LockManager::Holds(uint64_t txn_id, const LockId& id,
                        LockMode mode) const {
  const Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto strong_enough = [&](const LockId& candidate) {
    auto it = shard.locks.find(candidate);
    if (it == shard.locks.end()) return false;
    auto held = it->second.holders.find(txn_id);
    if (held == it->second.holders.end()) return false;
    return held->second == LockMode::kExclusive || mode == held->second;
  };
  if (strong_enough(id)) return true;
  // An escalated transaction holds the fragment lock instead of its key
  // entries; coverage counts as holding.
  return !id.whole_table && strong_enough(LockId::Table(id.node, id.table));
}

size_t LockManager::TotalLocks() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, entry] : shard.locks) {
      count += entry.holders.size();
    }
  }
  return count;
}

size_t LockManager::PeakShardEntries() const {
  size_t peak = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    peak = std::max(peak, shard.peak_entry_holders);
  }
  return peak;
}

void LockManager::ResetPeakEntries() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.peak_entry_holders = shard.entry_holders;
  }
}

}  // namespace pjvm
