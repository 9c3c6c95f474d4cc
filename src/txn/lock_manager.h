#ifndef PJVM_TXN_LOCK_MANAGER_H_
#define PJVM_TXN_LOCK_MANAGER_H_

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>

#include "common/status.h"
#include "common/value.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief Lock modes: shared (readers), exclusive (writers), and value
/// (escrow increments on aggregate group rows — compatible with other value
/// locks, conflicting with both readers and writers).
enum class LockMode { kShared = 0, kExclusive, kValue };

const char* LockModeToString(LockMode mode);

/// \brief Identity of a lockable resource: a key of a table's fragment at
/// one node, or the whole fragment (key_hash absent).
struct LockId {
  int node = -1;
  TableId table = kNoTable;
  /// Hash of the locked key value; 0 + whole_table=true locks the fragment.
  uint64_t key_hash = 0;
  bool whole_table = false;

  static LockId Key(int node, TableId table, const Value& key) {
    return LockId{node, table, key.Hash(), false};
  }
  /// A key value within one indexed column (so probes of A.c = 5 conflict
  /// with writers of rows whose c = 5, but not with other columns' keys).
  static LockId IndexKey(int node, TableId table, int column,
                         const Value& key) {
    uint64_t h = key.Hash() ^ (0x9e3779b97f4a7c15ULL * (column + 1));
    return LockId{node, table, h, false};
  }
  static LockId Table(int node, TableId table) {
    return LockId{node, table, 0, true};
  }

  friend bool operator<(const LockId& a, const LockId& b) {
    return std::tie(a.node, a.table, a.whole_table, a.key_hash) <
           std::tie(b.node, b.table, b.whole_table, b.key_hash);
  }
  std::string ToString() const;
};

/// \brief Strict two-phase locking with wait-die deadlock avoidance.
///
/// A conflicting Acquire blocks when the requester is older (smaller txn id,
/// or lineage age — see SetAge) than every conflicting holder — it parks on
/// the contended entry's condition variable until ReleaseAll wakes it or
/// `wait_timeout_ms` fires — and dies with Aborted when any conflicting
/// holder is older. Because a transaction only ever waits for younger
/// transactions, every waits-for edge points old → young and cycles are
/// impossible; no waits-for graph is needed. Timeouts also return Aborted,
/// so the caller's abort-and-retry path handles both uniformly. A wait
/// timeout of 0 turns every conflict into an immediate Aborted (no-wait).
///
/// Two execution contexts must never block (see common/worker_context.h):
/// node-executor workers, whose FIFO queues would suffer head-of-line
/// scheduling deadlocks, and threads holding a node latch, which the lock
/// holder may need to make progress. For them a would-wait decision
/// degrades to an immediate Aborted.
///
/// Locks are held until ReleaseAll at commit/abort (strictness). A
/// transaction's own locks never conflict with it, and a shared lock it
/// holds upgrades to exclusive when it is the only conflicting holder.
/// The wait-die test is re-evaluated on every wakeup: a new older holder
/// arriving while we slept kills the waiter.
///
/// **Value (escrow) locks.** `LockMode::kValue` implements the paper-family
/// V lock for commutative aggregate increments (view/escrow.h). The
/// compatibility matrix:
///
///             held S    held V    held X
///   want S      ok        —         —
///   want V      —         ok        —
///   want X      —         —         —
///
/// Two maintenance transactions incrementing the same COUNT/SUM group row
/// both hold V on its index key and proceed in parallel; a reader's S probe
/// or a writer's X still conflicts, so snapshots stay consistent. A V→X
/// upgrade (group birth/death — the non-commutative edges) goes through the
/// normal conflict loop: it waits for (or dies behind) the other V
/// holders, and its grant therefore implies the upgrader is the sole
/// holder. V grants and V→X upgrades are counted in `pjvm_vlock_grants` /
/// `pjvm_vlock_upgrades`.
///
/// Table-granularity locks conflict with every key of that fragment, so a
/// sort-merge scan can take one fragment lock instead of thousands of key
/// locks.
///
/// **Sharding.** The lock table is split into `kDefaultShards` shards, each
/// with its own mutex and entry map, so acquires, parks, and release-wakeups
/// on disjoint fragments never contend on a common mutex. The shard key is
/// the (node, table) pair — not the full lock id — because correctness
/// requires two whole-fragment operations to be atomic within one shard:
/// CollectConflicts checks table-lock ↔ key-lock coverage across every entry
/// of the fragment, and ReleaseAll wakes waiters parked anywhere on the
/// released fragment. Failed shard try-locks are counted in
/// `pjvm_lock_shard_contention`.
///
/// **Lock escalation.** A bulk maintenance transaction takes one key lock per
/// written row plus one per index key — a 10k-row delta fills a fragment's
/// shard with ~20k entries. When `escalation_threshold` is non-zero and a
/// transaction's key-lock count on one (node, table) fragment crosses it, the
/// granting Acquire escalates in place: it acquires the fragment-granularity
/// lock (exclusive if any of the key locks is exclusive, shared otherwise)
/// through the normal conflict loop — so wait-die, lineage ages, and
/// `WorkerContext::MustNotBlock` apply exactly as for any other acquire —
/// and then releases the transaction's key entries the fragment lock now
/// covers, waking their waiters so they re-evaluate against the fragment
/// lock. Because the fragment and its keys share a shard, the swap is atomic
/// under one shard mutex: no moment exists where the transaction holds
/// neither the keys nor the fragment. Later key acquires on the escalated
/// fragment are answered by the coverage fast path without creating entries.
/// If the fragment lock cannot be granted (a wait-die kill, a timeout, or a
/// would-wait in a non-blocking context), the Acquire that triggered
/// escalation returns Aborted and the caller's abort-and-retry path — e.g.
/// the ViewManager maintenance retry loop, which keeps lineage ages across
/// attempts — resolves it. Escalations are counted in
/// `pjvm_lock_escalations` / `pjvm_lock_entries_reclaimed` and in the
/// escalating thread's active CostTracker::TxnMeter, which is how EXPLAIN
/// ANALYZE reports them per transaction.
class LockManager {
 public:
  /// Acquires (or upgrades) a lock. Aborted on a wait-die death, a wait
  /// timeout, or a would-wait in a context that must not block.
  Status Acquire(uint64_t txn_id, const LockId& id, LockMode mode);

  /// Releases everything the transaction holds (commit or abort) and wakes
  /// waiters parked on the released entries.
  void ReleaseAll(uint64_t txn_id);

  /// Number of distinct resources the transaction holds locks on.
  size_t HeldCount(uint64_t txn_id) const;
  /// True if `txn_id` holds a lock on `id` at least as strong as `mode` —
  /// either the exact entry or, for a key lock, a covering fragment lock
  /// (what an escalated transaction holds instead of its key entries).
  bool Holds(uint64_t txn_id, const LockId& id, LockMode mode) const;

  /// Total live lock entries (tests / introspection).
  size_t TotalLocks() const;

  /// High-water mark of (entry, holder) pairs in the fullest single shard
  /// since construction / the last ResetPeakEntries. This is the number the
  /// escalation threshold bounds: without escalation a bulk delta's peak
  /// tracks its row count; with it, roughly the threshold.
  size_t PeakShardEntries() const;
  void ResetPeakEntries();

  /// Drops every lock (crash recovery: all in-flight txns are aborted) and
  /// wakes all waiters; their conflicts are gone, so they acquire.
  void Clear();

  /// Registers a priority timestamp for `txn_id` that differs from its id.
  /// Wait-die orders transactions by age; a retry loop that
  /// restarts an aborted transaction under a fresh id passes the lineage's
  /// FIRST id here so the restart keeps its original timestamp — the
  /// textbook anti-starvation rule (a restarted transaction is never again
  /// the youngest). Cleared by ReleaseAll/Clear.
  void SetAge(uint64_t txn_id, uint64_t age);

  /// Upper bound on one blocking wait; expiry returns Aborted. Values <= 0
  /// never wait: every conflict returns Aborted at once.
  void set_wait_timeout_ms(int ms) { wait_timeout_ms_ = ms; }

  /// Key-lock count per (txn, fragment) at which the granting Acquire
  /// escalates to the fragment lock. 0 (the default here; engines configure
  /// SystemConfig::lock_escalation_threshold) disables escalation.
  void set_escalation_threshold(int n) { escalation_threshold_ = std::max(0, n); }

  static constexpr int kDefaultShards = 16;

 private:
  struct Entry {
    // Holders by txn with their strongest mode.
    std::map<uint64_t, LockMode> holders;
    // Present while any txn is parked on this entry. Owned by shared_ptr so
    // a waiter can keep it alive across entry erasure (last holder released
    // while others still wait).
    std::shared_ptr<std::condition_variable> waiters;
    int waiter_count = 0;
  };

  /// Key-lock footprint of one transaction on one (node, table) fragment —
  /// keyed txn-first so ReleaseAll can drop a transaction's range.
  using FragKey = std::tuple<uint64_t, int, TableId>;

  /// One independent slice of the lock table. All entries of one
  /// (node, table) fragment live in the same shard (see class comment).
  struct Shard {
    mutable std::mutex mu;
    std::map<LockId, Entry> locks;
    std::map<uint64_t, std::set<LockId>> by_txn;
    /// Live key-lock (non-whole_table) counts per (txn, fragment); what the
    /// escalation threshold is compared against.
    std::map<FragKey, size_t> key_counts;
    /// Live (entry, holder) pairs in this shard and their high-water mark.
    size_t entry_holders = 0;
    size_t peak_entry_holders = 0;
  };

  Shard& ShardOf(const LockId& id) {
    return const_cast<Shard&>(
        static_cast<const LockManager*>(this)->ShardOf(id));
  }
  const Shard& ShardOf(const LockId& id) const;

  /// Collects holders (other than `txn_id`) conflicting with the request,
  /// considering table-vs-key coverage (a table lock covers all keys and
  /// vice versa). Empty means the lock is grantable. `shard.mu` held.
  static void CollectConflicts(const Shard& shard, uint64_t txn_id,
                               const LockId& id, LockMode mode,
                               std::set<uint64_t>* out);
  static Status ConflictAborted(uint64_t txn_id, const LockId& id,
                                LockMode mode,
                                const std::set<uint64_t>& holders,
                                const char* why);
  static void Grant(Shard& shard, uint64_t txn_id, const LockId& id,
                    LockMode mode);

  /// The conflict / wait-die / park loop of Acquire, entered with `lock` (on
  /// `shard.mu`) held; may release and re-take it while parked. Both the
  /// client-visible Acquire and the escalation path run through it, so
  /// wait-die semantics are identical for the two.
  Status AcquireLocked(std::unique_lock<std::mutex>& lock, Shard& shard,
                       uint64_t txn_id, const LockId& id, LockMode mode);

  /// If `txn_id`'s key-lock count on `id`'s fragment has reached the
  /// threshold, swaps the key entries for one fragment lock (see the class
  /// comment). Called with `lock` held, immediately after a key-lock grant;
  /// a non-OK status aborts the triggering Acquire.
  Status MaybeEscalateLocked(std::unique_lock<std::mutex>& lock, Shard& shard,
                             uint64_t txn_id, const LockId& id);
  static bool Compatible(LockMode held, LockMode wanted) {
    // S/S and V/V are the only compatible pairs: readers share, escrow
    // increments commute, and everything else conflicts (see the class
    // comment's matrix).
    return held == wanted && held != LockMode::kExclusive;
  }
  /// Least upper bound of two modes a single transaction holds on one
  /// resource: equal modes stay, any mix joins to exclusive (S+V demands
  /// both read- and increment-stability, which only X gives — and the mix
  /// can only arise for a sole holder, since S and V conflict across txns).
  static LockMode ModeJoin(LockMode a, LockMode b) {
    return a == b ? a : LockMode::kExclusive;
  }

  /// The priority timestamp wait-die compares: the registered age if SetAge
  /// was called for this transaction, its id otherwise.
  uint64_t AgeOf(uint64_t txn_id) const;

  std::array<Shard, kDefaultShards> shards_;
  int wait_timeout_ms_ = 500;
  int escalation_threshold_ = 0;

  /// Retry-lineage timestamps (SetAge). Leaf mutex: taken under a shard
  /// mutex, never the reverse.
  mutable std::mutex age_mu_;
  std::map<uint64_t, uint64_t> ages_;
};

}  // namespace pjvm

#endif  // PJVM_TXN_LOCK_MANAGER_H_
