#ifndef PJVM_TXN_WAL_H_
#define PJVM_TXN_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/row_id.h"

namespace pjvm {

/// \brief Kind of a write-ahead-log record.
enum class LogRecordType {
  kInsert = 0,
  kDelete,
  kPrepare,
  kCommit,
  kAbort,
  /// Logical escrow increment on one aggregate group row (view/escrow.h):
  /// `row` is the group prefix followed by per-column deltas, `aux` is the
  /// group-prefix width. Appended once per (view, group) at prepare time —
  /// the in-place heap edits themselves are not logged — and replayed by
  /// adding the deltas to the stored group row found by prefix match.
  kEscrowDelta,
};

/// \brief One log record, decoded (the log itself stores bytes, see Wal).
///
/// Data records identify rows by content rather than by row id so that
/// replay is insensitive to row-id recycling (aborted transactions consume
/// ids on the live path but are skipped during replay).
struct LogRecord {
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  LogRecordType type = LogRecordType::kInsert;
  /// The written table; kNoTable for control records.
  TableId table = kNoTable;
  Row row;
  /// Record-type-specific extra: for kEscrowDelta, the group-prefix width
  /// (how many leading columns of `row` identify the group). 0 otherwise.
  int aux = 0;
};

/// \brief A per-node write-ahead log.
///
/// Appends are durable immediately (the simulated failure model loses all
/// in-memory table state but never the log). Recovery replays, in order, the
/// data records of transactions the coordinator decided to commit.
///
/// **Storage.** Records are bytes, not objects: each Append encodes its
/// record at the end of the newest fixed-size block (`kBlockBytes`; a record
/// larger than that gets a block of its own), so the log holds no Row and a
/// growing log never copies what it already holds. A record is a u32 total
/// length, the u64 LSN, the u64 txn id, a one-byte type, the i32 `aux`, the
/// u32 table id (kNoTable for control records), and the row in the common
/// row encoding (common/row.h). Records never straddle blocks, so both
/// truncations cut at record boundaries: Clear frees whole blocks of the
/// checkpointed prefix, DiscardUnforced shortens the tail.
///
/// **LSN semantics: monotonic across the log's whole lifetime.** `Clear()`
/// (checkpoint truncation) drops the records but never resets `next_lsn_`,
/// so an LSN uniquely identifies one append forever — records written after
/// a checkpoint can never alias pre-checkpoint LSNs that might still be
/// referenced by diagnostics or recovery bookkeeping.
///
/// Append/size/Clear/Force/records are internally synchronized: parallel
/// write fan-outs append from node-executor workers while client threads run
/// autocommit operations. `ReplayCommitted` walks the bytes without the
/// mutex and is for quiescent callers only (recovery, tests) — no appends
/// may be in flight.
///
/// **Forcing and group commit.** A configurable simulated force cost
/// (`ConfigureForce`) splits durability in two: Append makes a record
/// *logged*, Force makes every record up to an LSN *durable* (advances the
/// `durable_lsn()` watermark after sleeping the simulated device time —
/// wall clock only, never charged to the CostTracker). Concurrent Force
/// calls elect a group-commit leader per round: the leader holds the force
/// for `group_commit_window_us` to accumulate more appends, then forces once
/// up to the newest LSN; followers park on the force condition variable
/// until the leader's round covers their LSN, so N concurrent commits pay
/// ~1 force instead of N. With `force_ns == 0` (the default)
/// appends are durable immediately and Force is free, which is the
/// pre-group-commit behavior all non-contention tests rely on.
///
/// The simulated crash (`DiscardUnforced`) drops records above the durable
/// watermark, modeling the loss of an unforced log tail. Note autocommit
/// appends are only covered once some later force advances the watermark
/// past them; crash tests drive explicit transactions, whose 2PC prepare
/// forces cover all their data records.
class Wal {
 public:
  /// Appends a record, assigning its LSN, and returns the LSN. `row` is
  /// encoded straight into the log; control records pass kNoTable and no
  /// row.
  uint64_t Append(uint64_t txn_id, LogRecordType type, TableId table,
                  std::span<const Value> row = {}, int aux = 0);

  /// Simulated force cost per device write (`force_ns` of wall-clock sleep,
  /// never charged to cost counters) and the group-commit leader's
  /// accumulation window. force_ns == 0 restores durable-on-append
  /// semantics.
  void ConfigureForce(uint64_t force_ns, int window_us) {
    std::lock_guard<std::mutex> lock(mu_);
    force_ns_ = force_ns;
    window_us_ = window_us;
  }

  /// Blocks until every record with LSN ≤ `lsn` is durable (clamped to the
  /// last assigned LSN). May force the log itself (leader) or ride a
  /// concurrent leader's force (follower).
  Status Force(uint64_t lsn);

  /// Test seam: invoked (with the log unlocked) by a group-commit leader
  /// right after it opens its accumulation window and before the device
  /// write. Whatever the hook appends or triggers is guaranteed to be inside
  /// the round — the deterministic replacement for "sleep and hope the
  /// window is still open" in timing tests. Not for production use.
  void set_window_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    window_hook_ = std::move(hook);
  }

  /// Highest LSN guaranteed to survive DiscardUnforced.
  uint64_t durable_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_lsn_;
  }

  /// Simulated crash of the log device's volatile tail: drops every record
  /// newer than the durable watermark. No-op when forcing is free.
  void DiscardUnforced();

  /// A decoded copy of every record, oldest first.
  std::vector<LogRecord> records() const;
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_records_;
  }
  /// The LSN the next append will receive; never decreases (see above).
  uint64_t next_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_lsn_;
  }

  /// Visits data records (insert, delete, escrow delta) of transactions for
  /// which `is_committed(txn_id)` is true, in log order. Each is decoded into
  /// one reused LogRecord, valid only for the duration of the call.
  void ReplayCommitted(const std::function<bool(uint64_t)>& is_committed,
                       const std::function<void(const LogRecord&)>& apply) const;

  /// Truncates the checkpointed prefix of the log. LSNs stay
  /// monotonic: the next append continues from where the pre-truncation log
  /// left off. A checkpoint may only declare durable what it *made* durable:
  /// when forcing is not free and the tail above `durable_lsn()` has never
  /// been forced, Clear pays one device force for it (riding out any
  /// in-flight group-commit round first) before advancing the watermark —
  /// silently advancing would launder a volatile tail into "durable" and a
  /// later DiscardUnforced crash would keep state the device never had.
  /// Counted in `pjvm_wal_checkpoint_forces`.
  void Clear();

 private:
  /// A run of encoded records, `kBlockBytes` long unless one record needs
  /// more. Live records fill [begin, end); Clear advances `begin` within the
  /// oldest block.
  struct Block {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;
    size_t begin = 0;
    size_t end = 0;
    size_t records = 0;
    uint64_t last_lsn = 0;
  };

  /// Bytes per block: large enough that a block holds hundreds of rows,
  /// small enough that a partly filled one per node wastes little.
  static constexpr size_t kBlockBytes = 64 * 1024;

  /// Room for a `size`-byte record at the end of the log (opens a block
  /// when the newest one is full), counted as one record of `lsn`.
  char* Reserve(size_t size, uint64_t lsn);
  /// Calls fn(const char* record) on each record, oldest first.
  template <typename Fn>
  void ForEachRecord(Fn fn) const;

  mutable std::mutex mu_;
  std::deque<Block> blocks_;
  size_t num_records_ = 0;
  uint64_t next_lsn_ = 1;

  // Force/group-commit state, all under mu_.
  uint64_t durable_lsn_ = 0;
  uint64_t force_ns_ = 0;
  int window_us_ = 100;
  bool force_in_progress_ = false;
  /// Force calls that joined since the current round's leader was elected;
  /// becomes the round's recorded batch size.
  uint64_t round_requests_ = 0;
  std::condition_variable force_cv_;
  /// Test seam; see set_window_hook.
  std::function<void()> window_hook_;
};

}  // namespace pjvm

#endif  // PJVM_TXN_WAL_H_
