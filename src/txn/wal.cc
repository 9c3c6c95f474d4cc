#include "txn/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace pjvm {

namespace {

// Record header field offsets; the layout is in the Wal class comment.
constexpr size_t kLsnAt = sizeof(uint32_t);
constexpr size_t kTxnAt = kLsnAt + sizeof(uint64_t);
constexpr size_t kTypeAt = kTxnAt + sizeof(uint64_t);
constexpr size_t kAuxAt = kTypeAt + sizeof(uint8_t);
constexpr size_t kTableAt = kAuxAt + sizeof(int32_t);
constexpr size_t kHeaderBytes = kTableAt + sizeof(TableId);

template <typename T>
T Load(const char* at) {
  T v;
  std::memcpy(&v, at, sizeof(v));
  return v;
}

template <typename T>
char* Store(char* out, T v) {
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

uint32_t RecordSize(const char* rec) { return Load<uint32_t>(rec); }
uint64_t RecordLsn(const char* rec) { return Load<uint64_t>(rec + kLsnAt); }

bool IsDataRecord(LogRecordType type) {
  return type == LogRecordType::kInsert || type == LogRecordType::kDelete ||
         type == LogRecordType::kEscrowDelta;
}

// Decodes one record into `out`, reusing its row storage.
void DecodeRecord(const char* rec, LogRecord* out) {
  out->lsn = RecordLsn(rec);
  out->txn_id = Load<uint64_t>(rec + kTxnAt);
  out->type = static_cast<LogRecordType>(Load<uint8_t>(rec + kTypeAt));
  out->aux = Load<int32_t>(rec + kAuxAt);
  out->table = Load<TableId>(rec + kTableAt);
  const char* end = rec + RecordSize(rec);
  if (DecodeRow(rec + kHeaderBytes, end, &out->row) != end) {
    std::fprintf(stderr, "PJVM fatal: corrupt WAL record at LSN %llu\n",
                 static_cast<unsigned long long>(out->lsn));
    std::abort();
  }
}

}  // namespace

uint64_t Wal::Append(uint64_t txn_id, LogRecordType type, TableId table,
                     std::span<const Value> row, int aux) {
  const size_t size = kHeaderBytes + EncodedRowSize(row);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = next_lsn_++;
  char* out = Reserve(size, lsn);
  out = Store(out, static_cast<uint32_t>(size));
  out = Store(out, lsn);
  out = Store(out, txn_id);
  out = Store(out, static_cast<uint8_t>(type));
  out = Store(out, static_cast<int32_t>(aux));
  out = Store(out, table);
  EncodeRow(row, out);
  // Free forcing: appends are durable immediately (the original model).
  if (force_ns_ == 0) durable_lsn_ = lsn;
  return lsn;
}

char* Wal::Reserve(size_t size, uint64_t lsn) {
  if (blocks_.empty() ||
      blocks_.back().capacity - blocks_.back().end < size) {
    Block& fresh = blocks_.emplace_back();
    fresh.capacity = std::max(kBlockBytes, size);
    fresh.bytes = std::make_unique_for_overwrite<char[]>(fresh.capacity);
  }
  Block& block = blocks_.back();
  char* out = block.bytes.get() + block.end;
  block.end += size;
  ++block.records;
  block.last_lsn = lsn;
  ++num_records_;
  return out;
}

template <typename Fn>
void Wal::ForEachRecord(Fn fn) const {
  for (const Block& block : blocks_) {
    const char* rec = block.bytes.get() + block.begin;
    const char* end = block.bytes.get() + block.end;
    for (; rec < end; rec += RecordSize(rec)) fn(rec);
  }
}

std::vector<LogRecord> Wal::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out;
  out.reserve(num_records_);
  ForEachRecord(
      [&](const char* rec) { DecodeRecord(rec, &out.emplace_back()); });
  return out;
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
  // slept are not covered by this checkpoint and stay in the log. Blocks
  // wholly inside the prefix are freed; the first survivor's block starts
  // at that record.
  while (!blocks_.empty() && blocks_.front().last_lsn <= tail) {
    num_records_ -= blocks_.front().records;
    blocks_.pop_front();
  }
  if (!blocks_.empty()) {
    Block& block = blocks_.front();
    while (RecordLsn(block.bytes.get() + block.begin) <= tail) {
      block.begin += RecordSize(block.bytes.get() + block.begin);
      --block.records;
      --num_records_;
    }
  }
  durable_lsn_ = std::max(durable_lsn_, tail);
}

void Wal::DiscardUnforced() {
  std::lock_guard<std::mutex> lock(mu_);
  // Whole blocks above the watermark go; the newest survivor is cut after
  // its last durable record. Every block keeps at least one record.
  while (!blocks_.empty() &&
         RecordLsn(blocks_.back().bytes.get() + blocks_.back().begin) >
             durable_lsn_) {
    num_records_ -= blocks_.back().records;
    blocks_.pop_back();
  }
  if (blocks_.empty() || blocks_.back().last_lsn <= durable_lsn_) return;
  Block& block = blocks_.back();
  size_t cut = block.begin;
  size_t kept = 0;
  while (RecordLsn(block.bytes.get() + cut) <= durable_lsn_) {
    block.last_lsn = RecordLsn(block.bytes.get() + cut);
    cut += RecordSize(block.bytes.get() + cut);
    ++kept;
  }
  num_records_ -= block.records - kept;
  block.records = kept;
  block.end = cut;
}

void Wal::ReplayCommitted(
    const std::function<bool(uint64_t)>& is_committed,
    const std::function<void(const LogRecord&)>& apply) const {
  LogRecord rec;
  ForEachRecord([&](const char* bytes) {
    // The header decides relevance; only replayed records decode a row.
    const auto type =
        static_cast<LogRecordType>(Load<uint8_t>(bytes + kTypeAt));
    if (!IsDataRecord(type) || !is_committed(Load<uint64_t>(bytes + kTxnAt))) {
      return;
    }
    DecodeRecord(bytes, &rec);
    apply(rec);
  });
}

}  // namespace pjvm
