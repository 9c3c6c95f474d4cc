#include "txn/wal.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {

const char* LogRecordTypeToString(LogRecordType type) {
  switch (type) {
    case LogRecordType::kInsert:
      return "INSERT";
    case LogRecordType::kDelete:
      return "DELETE";
    case LogRecordType::kPrepare:
      return "PREPARE";
    case LogRecordType::kCommit:
      return "COMMIT";
    case LogRecordType::kAbort:
      return "ABORT";
    case LogRecordType::kEscrowDelta:
      return "ESCROW_DELTA";
  }
  return "UNKNOWN";
}

std::string LogRecord::ToString() const {
  std::string out = "[" + std::to_string(lsn) + " txn=" + std::to_string(txn_id) +
                    " " + LogRecordTypeToString(type);
  if (!table.empty()) out += " " + table;
  if (!row.empty()) out += " " + RowToString(row);
  out += "]";
  return out;
}

uint64_t Wal::Append(LogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.lsn = next_lsn_++;
  uint64_t lsn = record.lsn;
  records_.push_back(std::move(record));
  // Free forcing: appends are durable immediately (the original model).
  if (force_ns_ == 0) durable_lsn_ = lsn;
  return lsn;
}

Status Wal::Force(uint64_t lsn) {
  static LatencyHistogram* batch_size =
      MetricsRegistry::Global().histogram("pjvm_group_commit_batch_size");
  static LatencyHistogram* waits_ns =
      MetricsRegistry::Global().histogram("pjvm_group_commit_waits_ns");

  std::unique_lock<std::mutex> lock(mu_);
  if (lsn >= next_lsn_) lsn = next_lsn_ - 1;
  if (force_ns_ == 0 || durable_lsn_ >= lsn) return Status::OK();

  ++round_requests_;
  uint64_t wait_start_ns = 0;
  for (;;) {
    if (durable_lsn_ >= lsn) {
      // Follower: a leader's round covered our LSN while we parked.
      if (wait_start_ns != 0) {
        waits_ns->Record(Tracer::NowNs() - wait_start_ns);
      }
      return Status::OK();
    }
    if (!force_in_progress_) break;  // become this round's leader
    if (wait_start_ns == 0) wait_start_ns = Tracer::NowNs();
    force_cv_.wait(lock);
  }

  // Leader: hold the force open briefly so concurrent committers' appends
  // join this round, then force everything logged so far in one write.
  force_in_progress_ = true;
  if (window_us_ > 0 || window_hook_) {
    // The hook (a test seam) runs with the window open and the log unlocked,
    // so whatever it appends deterministically joins this round.
    std::function<void()> hook = window_hook_;
    lock.unlock();
    if (hook) hook();
    if (window_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(window_us_));
    }
    lock.lock();
  }
  uint64_t target = next_lsn_ - 1;  // everything appended up to now
  uint64_t batch = round_requests_;
  round_requests_ = 0;
  // The simulated device write. Sleeps wall-clock time only — forcing is a
  // latency model, not an I/O primitive, so it must never move the
  // CostTracker counters (the equivalence suites compare them bit-exactly).
  lock.unlock();
  std::this_thread::sleep_for(std::chrono::nanoseconds(force_ns_));
  lock.lock();
  durable_lsn_ = std::max(durable_lsn_, target);
  batch_size->Record(batch);
  force_in_progress_ = false;
  force_cv_.notify_all();
  return Status::OK();
}

void Wal::Clear() {
  static Counter* checkpoint_forces =
      MetricsRegistry::Global().counter("pjvm_wal_checkpoint_forces");

  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t tail = next_lsn_ - 1;
  if (force_ns_ > 0 && durable_lsn_ < tail) {
    // An unforced tail exists. Wait out any in-flight force round (it may
    // already cover it), then pay the device write ourselves: truncation
    // advances the durable watermark, and a watermark that outruns the
    // device turns a later DiscardUnforced "crash" into silent corruption.
    while (force_in_progress_) force_cv_.wait(lock);
    if (durable_lsn_ < tail) {
      force_in_progress_ = true;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::nanoseconds(force_ns_));
      lock.lock();
      durable_lsn_ = std::max(durable_lsn_, tail);
      force_in_progress_ = false;
      force_cv_.notify_all();
      checkpoint_forces->Increment();
    }
  }
  // Drop only the checkpointed prefix: records appended while the force
  // slept are not covered by this checkpoint and stay in the log.
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [tail](const LogRecord& rec) {
                                  return rec.lsn <= tail;
                                }),
                 records_.end());
  durable_lsn_ = std::max(durable_lsn_, tail);
}

void Wal::DiscardUnforced() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.erase(
      std::remove_if(records_.begin(), records_.end(),
                     [this](const LogRecord& rec) {
                       return rec.lsn > durable_lsn_;
                     }),
      records_.end());
}

void Wal::ReplayCommitted(
    const std::function<bool(uint64_t)>& is_committed,
    const std::function<void(const LogRecord&)>& apply) const {
  for (const LogRecord& rec : records_) {
    if (rec.type != LogRecordType::kInsert &&
        rec.type != LogRecordType::kDelete &&
        rec.type != LogRecordType::kEscrowDelta) {
      continue;
    }
    if (!is_committed(rec.txn_id)) continue;
    apply(rec);
  }
}

}  // namespace pjvm
