#include "engine/node.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/metrics_registry.h"

namespace pjvm {

namespace {

// Process-wide latch acquisition counters. The snapshot-isolation tests
// assert these stay flat across a reader window with mvcc_reads on — the
// measurable form of "readers take no latches".
Counter* LatchSharedCounter() {
  static Counter* c = MetricsRegistry::Global().counter("pjvm_node_latch_shared");
  return c;
}

Counter* LatchExclusiveCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("pjvm_node_latch_exclusive");
  return c;
}

struct SharedDepthEntry {
  const NodeLatch* latch;
  int depth;
};

// Per-thread shared hold depths, one entry per latch this thread currently
// holds shared. A handful at most (one per node touched), so linear scan.
thread_local std::vector<SharedDepthEntry> tls_shared_depths;

}  // namespace

Gauge* MvccVersionsLiveGauge() {
  static Gauge* g = MetricsRegistry::Global().gauge("pjvm_mvcc_versions_live");
  return g;
}

void MvccFoldBelowWatermark(TableFragment* frag, uint64_t watermark) {
  static Counter* reclaimed =
      MetricsRegistry::Global().counter("pjvm_mvcc_gc_reclaimed");
  size_t folded = frag->MvccMaybeFold(watermark);
  if (folded > 0) {
    MvccVersionsLiveGauge()->Add(-static_cast<double>(folded));
    reclaimed->Increment(folded);
  }
}

int& NodeLatch::SharedDepth(const NodeLatch* latch) {
  for (SharedDepthEntry& e : tls_shared_depths) {
    if (e.latch == latch) return e.depth;
  }
  tls_shared_depths.push_back({latch, 0});
  return tls_shared_depths.back().depth;
}

int NodeLatch::SharedDepthOf(const NodeLatch* latch) {
  for (const SharedDepthEntry& e : tls_shared_depths) {
    if (e.latch == latch) return e.depth;
  }
  return 0;
}

void NodeLatch::DropSharedDepth(const NodeLatch* latch) {
  for (size_t i = 0; i < tls_shared_depths.size(); ++i) {
    if (tls_shared_depths[i].latch == latch) {
      tls_shared_depths[i] = tls_shared_depths.back();
      tls_shared_depths.pop_back();
      return;
    }
  }
}

void NodeLatch::AcquireShared() const {
  LatchSharedCounter()->Increment();
  if (writer_.load(std::memory_order_acquire) == std::this_thread::get_id()) {
    // Exclusive subsumes shared: deepen the existing exclusive hold.
    std::lock_guard<std::mutex> lock(mu_);
    ++writer_depth_;
    return;
  }
  int& depth = SharedDepth(this);
  std::unique_lock<std::mutex> lock(mu_);
  if (depth > 0) {
    // Nested shared: the outer hold already excludes writers, so skip the
    // waiting-writer gate (blocking here would deadlock against writer
    // priority).
    ++readers_;
    ++depth;
    return;
  }
  cv_.wait(lock,
           [this] { return writer_depth_ == 0 && waiting_writers_ == 0; });
  ++readers_;
  depth = 1;
}

void NodeLatch::ReleaseShared() const {
  if (writer_.load(std::memory_order_acquire) == std::this_thread::get_id()) {
    ReleaseExclusive();
    return;
  }
  int& depth = SharedDepth(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --readers_;
    --depth;
    if (readers_ == 0) cv_.notify_all();
  }
  if (depth == 0) DropSharedDepth(this);
}

void NodeLatch::AcquireExclusive() const {
  LatchExclusiveCounter()->Increment();
  const std::thread::id me = std::this_thread::get_id();
  if (writer_.load(std::memory_order_acquire) == me) {
    std::lock_guard<std::mutex> lock(mu_);
    ++writer_depth_;
    return;
  }
  if (SharedDepthOf(this) > 0) {
    // A shared→exclusive upgrade deadlocks against a symmetric upgrader;
    // no engine call path performs one, so treat it as a programming error.
    std::fprintf(stderr,
                 "NodeLatch: shared->exclusive upgrade attempted; aborting\n");
    std::abort();
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++waiting_writers_;
  cv_.wait(lock, [this] { return readers_ == 0 && writer_depth_ == 0; });
  --waiting_writers_;
  writer_depth_ = 1;
  writer_.store(me, std::memory_order_release);
}

void NodeLatch::ReleaseExclusive() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (--writer_depth_ == 0) {
    writer_.store(std::thread::id{}, std::memory_order_release);
    cv_.notify_all();
  }
}

Status Node::CreateFragment(const TableDef& def, int rows_per_page) {
  if (def.id >= slots_.size()) slots_.resize(def.id + 1);
  TableSlot& slot = slots_[def.id];
  if (slot.fragment != nullptr) {
    return Status::AlreadyExists("node " + std::to_string(id_) +
                                 " already has fragment '" + def.name + "'");
  }
  auto frag = std::make_unique<TableFragment>(def.schema, rows_per_page);
  for (const IndexSpec& idx : def.indexes) {
    PJVM_ASSIGN_OR_RETURN(int col, def.schema.ColumnIndex(idx.column));
    PJVM_RETURN_NOT_OK(frag->CreateIndex(col, idx.clustered));
  }
  if (snaps_ != nullptr) frag->EnableMvcc(snaps_->current_epoch());
  slot.fragment = std::move(frag);
  slot.kind = def.kind;
  slot.name = def.name;
  return Status::OK();
}

CostTracker::WriteKind Node::WriteKindOf(TableId table) const {
  switch (slots_[table].kind) {
    case TableKind::kBase:
      return CostTracker::WriteKind::kBase;
    case TableKind::kAuxiliary:
    case TableKind::kGlobalIndex:
      return CostTracker::WriteKind::kStructure;
    case TableKind::kView:
      return CostTracker::WriteKind::kView;
  }
  return CostTracker::WriteKind::kBase;
}

void Node::LogWrite(uint64_t txn_id, TableId table, TableFragment* frag,
                    LocalRowId lrid, MvccOp::Kind kind, const Row& row) {
  const bool transactional = txn_id != kAutoCommitTxnId;
  const bool versioned = snaps_ != nullptr && frag->mvcc_enabled();
  wal_.Append(txn_id,
              kind == MvccOp::Kind::kInsert ? LogRecordType::kInsert
                                            : LogRecordType::kDelete,
              table, row);
  if (!transactional && !versioned) return;
  MvccOp op = VersionOp(kind, row, *frag);
  if (transactional) {
    txns_->RecordWrite(txn_id, TxnWrite{id_, table, lrid, std::move(op)});
    return;
  }
  std::vector<MvccOp> ops;
  ops.push_back(std::move(op));
  PublishAutocommit(frag, std::move(ops));
}

MvccOp Node::VersionOp(MvccOp::Kind kind, const Row& row,
                       const TableFragment& frag) const {
  MvccOp op;
  op.kind = kind;
  // The op keeps a row only where something reads it: undo re-inserts a
  // deleted row, and PublishVersions reads every row when snapshots are on.
  if (kind == MvccOp::Kind::kDelete || snaps_ != nullptr) op.row = row;
  op.pages_after = frag.num_pages();
  op.rows_after = frag.num_rows();
  return op;
}

void Node::PublishAutocommit(TableFragment* frag, std::vector<MvccOp> ops) {
  snaps_->Publish(
      [&](uint64_t epoch) { frag->MvccPublish(epoch, std::move(ops)); });
  MvccVersionsLiveGauge()->Add(1.0);
  snaps_->Fold(
      [&](uint64_t watermark) { MvccFoldBelowWatermark(frag, watermark); });
}

Status Node::DropFragment(TableId table) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  if (snaps_ != nullptr) {
    size_t dropped = frag->MvccChainDeltas();
    if (dropped > 0) {
      MvccVersionsLiveGauge()->Add(-static_cast<double>(dropped));
    }
  }
  slots_[table] = TableSlot{};
  return Status::OK();
}

Status Node::MissingFragment(TableId table) const {
  return Status::NotFound("node " + std::to_string(id_) +
                          " has no fragment of table " +
                          std::to_string(table));
}

Status Node::LockForWrite(uint64_t txn_id, TableId table,
                          const TableFragment& frag, const Row& row) {
  if (locks_ == nullptr || txn_id == kAutoCommitTxnId) return Status::OK();
  PJVM_RETURN_NOT_OK(locks_->Acquire(
      txn_id, LockId{id_, table, HashRow(row), false}, LockMode::kExclusive));
  for (const LocalIndex* index : frag.Indexes()) {
    PJVM_RETURN_NOT_OK(locks_->Acquire(
        txn_id, LockId::IndexKey(id_, table, index->column, row[index->column]),
        LockMode::kExclusive));
  }
  return Status::OK();
}

Result<LocalRowId> Node::Insert(uint64_t txn_id, TableId table, Row row) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  // Transaction locks first — a blocking wait must never happen under the
  // latch (the lock holder may need the latch to make progress).
  PJVM_RETURN_NOT_OK(LockForWrite(txn_id, table, *frag, row));
  NodeLatchGuard latch(*this);
  PJVM_ASSIGN_OR_RETURN(LocalRowId lrid, frag->Insert(std::move(row)));
  tracker_->ChargeWrite(id_, WriteKindOf(table));
  // Each secondary access path descends once to splice the new row in; an
  // indexless fragment (merged-layout member) touches only the heap.
  if (frag->has_indexes()) tracker_->ChargeDescent(id_, frag->num_indexes());
  // Recorded only after the heap accepted the row: a rejected insert must
  // leave no WAL record (replay would fail on it) and no write to undo. The
  // record is encoded from the heap's stored row, still under the latch.
  LogWrite(txn_id, table, frag, lrid, MvccOp::Kind::kInsert, *frag->Get(lrid));
  return lrid;
}

Status Node::InsertRun(uint64_t txn_id, TableId table,
                       std::vector<Row> rows, std::vector<LocalRowId>* lrids) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  // Lock before latch (see Insert): every row's locks, in run order.
  for (const Row& row : rows) {
    PJVM_RETURN_NOT_OK(LockForWrite(txn_id, table, *frag, row));
  }
  NodeLatchGuard latch(*this);
  const size_t n = rows.size();
  const bool transactional = txn_id != kAutoCommitTxnId;
  const bool versioned = snaps_ != nullptr && frag->mvcc_enabled();
  std::vector<TxnWrite> writes;
  std::vector<MvccOp> ops;
  if (lrids != nullptr) lrids->reserve(lrids->size() + n);
  frag->InsertRun(std::move(rows), [&](LocalRowId lrid, const Row& stored) {
    // Each record is encoded from the heap's stored row, as Insert logs it.
    wal_.Append(txn_id, LogRecordType::kInsert, table, stored);
    if (lrids != nullptr) lrids->push_back(lrid);
    if (transactional) {
      writes.push_back(TxnWrite{id_, table, lrid,
                                VersionOp(MvccOp::Kind::kInsert, stored,
                                          *frag)});
    } else if (versioned) {
      ops.push_back(VersionOp(MvccOp::Kind::kInsert, stored, *frag));
    }
  });
  tracker_->ChargeWrite(id_, WriteKindOf(table), n);
  if (frag->has_indexes()) {
    tracker_->ChargeDescent(id_, n * frag->num_indexes());
  }
  if (transactional) {
    txns_->RecordWrites(txn_id, std::move(writes));
  } else if (!ops.empty()) {
    PublishAutocommit(frag, std::move(ops));
  }
  return Status::OK();
}

Status Node::DeleteExact(uint64_t txn_id, TableId table, const Row& row) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  // Lock before latch (see Insert). The X locks cover the row whether or
  // not it turns out to exist, which also stabilizes the existence check
  // against a concurrent writer of the same row.
  PJVM_RETURN_NOT_OK(LockForWrite(txn_id, table, *frag, row));
  NodeLatchGuard latch(*this);
  // Locating the victim costs a search, charged whether or not it is found.
  tracker_->ChargeSearch(id_);
  // Confirm existence first so the WAL only records deletes that actually
  // happened (replay must never fail).
  Result<LocalRowId> found = frag->FindExact(row);
  if (!found.ok()) {
    return Status::NotFound("no row " + RowToString(row) + " in '" +
                            slots_[table].name + "' at node " +
                            std::to_string(id_));
  }
  LocalRowId lrid = *found;
  // A transactional delete keeps its slot reserved until the 2PC outcome:
  // if the transaction aborts, the undo pass restores the row at this exact
  // lrid, which committed global-index entries may reference. An immediate
  // free would let a concurrent insert recycle the slot first, forcing the
  // restored row to a new lrid and leaving those entries dangling.
  PJVM_RETURN_NOT_OK(frag->DeleteByRid(
      lrid, /*keep_slot=*/txn_id != kAutoCommitTxnId));
  // The write itself is INSERT-weighted (one page read-modify-write).
  tracker_->ChargeWrite(id_, WriteKindOf(table));
  if (frag->has_indexes()) tracker_->ChargeDescent(id_, frag->num_indexes());
  LogWrite(txn_id, table, frag, lrid, MvccOp::Kind::kDelete, row);
  return Status::OK();
}

Result<ProbeResult> Node::IndexProbe(TableId table, int column,
                                     const Value& key, uint64_t txn_id) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  // Lock before latch: the S lock may block (wait-die) on a client thread;
  // under a latch or on a worker the lock manager aborts instead.
  if (locks_ != nullptr && txn_id != kAutoCommitTxnId) {
    PJVM_RETURN_NOT_OK(locks_->Acquire(
        txn_id, LockId::IndexKey(id_, table, column, key), LockMode::kShared));
  }
  NodeLatchGuard latch(*this, LatchMode::kShared);
  const LocalIndex* index = frag->FindIndex(column);
  if (index == nullptr) {
    return Status::InvalidArgument(
        "no index on column " + std::to_string(column) + " of '" +
        slots_[table].name + "' at node " + std::to_string(id_));
  }
  tracker_->ChargeSearch(id_);
  tracker_->ChargeDescent(id_);
  PJVM_ASSIGN_OR_RETURN(ProbeResult result, frag->Probe(column, key));
  if (!index->clustered) {
    tracker_->ChargeFetch(id_, result.rows.size());
  }
  return result;
}

Status Node::AcquireTableShared(uint64_t txn_id, TableId table) {
  if (locks_ == nullptr || txn_id == kAutoCommitTxnId) return Status::OK();
  return locks_->Acquire(txn_id, LockId::Table(id_, table), LockMode::kShared);
}

Status Node::SelectEq(const ReadEpoch& epoch, uint64_t txn_id, TableId table,
                      int column, const Value& key, std::vector<Row>* out) {
  const TableFragment* frag = fragment(table);
  std::vector<Row> rows;
  if (!epoch.live()) {
    std::shared_ptr<const MvccState> state = frag->MvccHead();
    const MvccIndexMeta* index = MvccFindIndex(*state, column);
    if (index != nullptr) {
      tracker_->ChargeSearch(id_);
      tracker_->ChargeDescent(id_);
    } else {
      tracker_->ChargeIOPages(id_, MvccNumPages(*state, epoch.value()));
    }
    rows = MvccProbe(*state, epoch.value(), column, key).rows;
    if (index != nullptr && !index->clustered) {
      tracker_->ChargeFetch(id_, rows.size());
    }
  } else if (frag->HasIndexOn(column)) {
    PJVM_ASSIGN_OR_RETURN(ProbeResult r, IndexProbe(table, column, key, txn_id));
    rows = std::move(r.rows);
  } else {
    // Lock before latch: the fragment S lock may block (see IndexProbe).
    PJVM_RETURN_NOT_OK(AcquireTableShared(txn_id, table));
    NodeLatchGuard latch(*this, LatchMode::kShared);
    tracker_->ChargeIOPages(id_, frag->num_pages());
    rows = frag->ScanEq(column, key).rows;
  }
  out->insert(out->end(), std::make_move_iterator(rows.begin()),
              std::make_move_iterator(rows.end()));
  return Status::OK();
}

Status Node::SelectRange(const ReadEpoch& epoch, uint64_t txn_id,
                         TableId table, int column, const Value& lo,
                         const Value& hi, std::vector<Row>* out) {
  const TableFragment* frag = fragment(table);
  if (!epoch.live()) {
    std::shared_ptr<const MvccState> state = frag->MvccHead();
    if (MvccFindIndex(*state, column) != nullptr) {
      tracker_->ChargeSearch(id_);  // One seek to the range's start.
      tracker_->ChargeFetch(
          id_, MvccScanRange(*state, epoch.value(), column, lo, hi, out));
    } else {
      tracker_->ChargeIOPages(id_, MvccNumPages(*state, epoch.value()));
      MvccScanRange(*state, epoch.value(), column, lo, hi, out);
    }
    return Status::OK();
  }
  // Lock before latch: the fragment S lock covers the whole range
  // (phantom-safe) and may block, which is illegal under the latch.
  PJVM_RETURN_NOT_OK(AcquireTableShared(txn_id, table));
  NodeLatchGuard latch(*this, LatchMode::kShared);
  const LocalIndex* index = frag->FindIndex(column);
  if (index != nullptr) {
    tracker_->ChargeSearch(id_);  // One seek to the range's start.
    size_t delivered = 0;
    index->tree.ScanRange(lo, hi, [&](const Value&, const LocalRowId& lrid) {
      out->push_back(*frag->Get(lrid));
      ++delivered;
      return true;
    });
    tracker_->ChargeFetch(id_, delivered);
  } else {
    tracker_->ChargeIOPages(id_, frag->num_pages());
    frag->ForEach([&](LocalRowId, const Row& row) {
      if (lo <= row[column] && row[column] <= hi) out->push_back(row);
      return true;
    });
  }
  return Status::OK();
}

void Node::ForEachRow(const ReadEpoch& epoch, TableId table,
                      const std::function<void(const Row&)>& fn) const {
  const TableFragment* frag = fragment(table);
  if (frag == nullptr) return;
  if (!epoch.live()) {
    MvccForEachRow(*frag->MvccHead(), epoch.value(), fn);
    return;
  }
  NodeLatchGuard latch(*this, LatchMode::kShared);
  frag->ForEach([&](LocalRowId, const Row& row) {
    fn(row);
    return true;
  });
}

size_t Node::RowCount(const ReadEpoch& epoch, TableId table) const {
  const TableFragment* frag = fragment(table);
  if (frag == nullptr) return 0;
  if (!epoch.live()) return MvccNumRows(*frag->MvccHead(), epoch.value());
  NodeLatchGuard latch(*this, LatchMode::kShared);
  return frag->num_rows();
}

std::optional<size_t> Node::CountMatches(const ReadEpoch& epoch,
                                         TableId table, int column,
                                         const Value& key) const {
  const TableFragment* frag = fragment(table);
  if (frag == nullptr) return std::nullopt;
  if (!epoch.live()) {
    std::shared_ptr<const MvccState> state = frag->MvccHead();
    if (MvccFindIndex(*state, column) == nullptr) return std::nullopt;
    return MvccProbeCount(*state, epoch.value(), column, key);
  }
  NodeLatchGuard latch(*this, LatchMode::kShared);
  const LocalIndex* index = frag->FindIndex(column);
  if (index == nullptr) return std::nullopt;
  const auto* list = index->tree.Find(key);
  return list == nullptr ? 0 : list->size();
}

ColumnStats Node::ColumnStatsOf(const ReadEpoch& epoch,
                                TableId table, int column) const {
  const TableFragment* frag = fragment(table);
  if (frag == nullptr) return {};
  if (!epoch.live()) {
    return ScanColumnStats(column, [&](const auto& visit) {
      MvccForEachRow(*frag->MvccHead(), epoch.value(), visit);
    });
  }
  NodeLatchGuard latch(*this, LatchMode::kShared);
  return ComputeColumnStats(*frag, column);
}

Status Node::ApplyUndo(const TxnWrite& write) {
  TableFragment* frag = fragment(write.table);
  if (frag == nullptr) {
    return Status::Internal("abort: missing fragment of table " +
                            std::to_string(write.table));
  }
  NodeLatchGuard latch(*this);
  if (write.op.kind == MvccOp::Kind::kInsert) {
    // The row never committed, so nothing durable references its lrid;
    // free the slot normally.
    return frag->DeleteByRid(write.lrid);
  }
  // Restore the row into the slot the delete reserved — the lrid that
  // committed global-index entries still point at.
  return frag->InsertAt(write.lrid, write.op.row);
}

void Node::ReleaseReservedSlots(const std::vector<const TxnWrite*>& deletes) {
  NodeLatchGuard latch(*this);
  for (const TxnWrite* write : deletes) {
    TableFragment* frag = fragment(write->table);
    if (frag != nullptr) frag->ReleaseSlot(write->lrid);
  }
}

Status Node::EscrowReplace(TableId table, LocalRowId lrid, Row row) {
  TableFragment* frag = fragment(table);
  if (frag == nullptr) return MissingFragment(table);
  // Exclusive latch is re-entrant: the journal's caller already holds it
  // for the probe that produced `lrid`, so the row cannot have moved.
  NodeLatchGuard latch(*this);
  PJVM_RETURN_NOT_OK(frag->DeleteByRid(lrid, /*keep_slot=*/true));
  PJVM_RETURN_NOT_OK(frag->InsertAt(lrid, std::move(row)));
  // One page read-modify-write; the group key is unchanged, so the index
  // leaf is rewritten in place (no extra descent).
  tracker_->ChargeWrite(id_, WriteKindOf(table));
  return Status::OK();
}

Status Node::ApplyLogRecord(const LogRecord& record) {
  TableFragment* frag = fragment(record.table);
  if (frag == nullptr) return MissingFragment(record.table);
  switch (record.type) {
    case LogRecordType::kInsert:
      return frag->Insert(record.row).status();
    case LogRecordType::kDelete:
      return frag->DeleteExact(record.row).status();
    case LogRecordType::kEscrowDelta: {
      // Logical redo: add the deltas to the stored group row found by its
      // prefix. The group row is guaranteed present: its birth (a physical
      // kInsert) precedes every escrow delta on it in the log, serialized by
      // the V/X conflict between deltas and birth/death.
      const int width = record.aux;
      LocalRowId lrid = 0;
      const Row* current = nullptr;
      frag->ForEach([&](LocalRowId rid, const Row& candidate) {
        if (std::equal(candidate.begin(), candidate.begin() + width,
                       record.row.begin())) {
          lrid = rid;
          current = &candidate;
          return false;
        }
        return true;
      });
      if (current == nullptr) {
        return Status::Internal("recovery: escrow delta for a missing group " +
                                RowToString(record.row) + " in '" +
                                slots_[record.table].name + "'");
      }
      Row next = *current;
      for (size_t i = width; i < record.row.size(); ++i) {
        next[i] = AddValues(next[i], record.row[i]);
      }
      PJVM_RETURN_NOT_OK(frag->DeleteByRid(lrid, /*keep_slot=*/true));
      return frag->InsertAt(lrid, std::move(next));
    }
    default:
      return Status::InvalidArgument("recovery: non-data record");
  }
}

void Node::WipeFragments() {
  double dropped = 0;
  for (TableSlot& slot : slots_) {
    if (slot.fragment == nullptr) continue;
    if (snaps_ != nullptr) {
      dropped += static_cast<double>(slot.fragment->MvccChainDeltas());
    }
    slot.fragment.reset();
  }
  if (dropped > 0) MvccVersionsLiveGauge()->Add(-dropped);
}

Status Node::RecreateFragments(const Catalog& catalog, int rows_per_page) {
  for (TableSlot& slot : slots_) slot.fragment.reset();
  for (const std::string& name : catalog.ListNames()) {
    PJVM_ASSIGN_OR_RETURN(const TableDef* def, catalog.Get(name));
    PJVM_RETURN_NOT_OK(CreateFragment(*def, rows_per_page));
  }
  return Status::OK();
}

void Node::Checkpoint() {
  for (TableSlot& slot : slots_) {
    std::string& image = slot.checkpoint;
    image.clear();
    const TableFragment* frag = slot.fragment.get();
    if (frag == nullptr) continue;
    // Sized first, so the image is one exact allocation.
    size_t bytes = 0;
    frag->ForEach([&](LocalRowId, const Row& row) {
      bytes += EncodedRowSize(row);
      return true;
    });
    image.reserve(bytes);
    frag->ForEach([&](LocalRowId, const Row& row) {
      AppendEncodedRow(row, &image);
      return true;
    });
  }
  wal_.Clear();
}

Status Node::RestoreCheckpoint() {
  Row row;
  for (TableSlot& slot : slots_) {
    TableFragment* frag = slot.fragment.get();
    if (frag == nullptr) continue;
    const std::string& image = slot.checkpoint;
    const char* end = image.data() + image.size();
    for (const char* at = image.data(); at != end;) {
      at = DecodeRow(at, end, &row);
      if (at == nullptr) {
        return Status::Internal("recovery: corrupt checkpoint image of '" +
                                slot.name + "' at node " +
                                std::to_string(id_));
      }
      PJVM_RETURN_NOT_OK(frag->Insert(row).status());
    }
  }
  return Status::OK();
}

Status Node::CheckInvariants() const {
  for (const TableSlot& slot : slots_) {
    if (slot.fragment == nullptr) continue;
    Status st = slot.fragment->CheckInvariants();
    if (!st.ok()) {
      return Status::Internal("node " + std::to_string(id_) + " fragment '" +
                              slot.name + "': " + st.ToString());
    }
  }
  return Status::OK();
}

}  // namespace pjvm
