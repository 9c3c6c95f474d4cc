#include "storage/table_fragment.h"

#include <algorithm>

namespace pjvm {

TableFragment::TableFragment(Schema schema, int rows_per_page)
    : schema_(std::move(schema)), heap_(rows_per_page) {}

Status TableFragment::CreateIndex(int column, bool clustered) {
  if (column < 0 || column >= schema_.num_columns()) {
    return Status::InvalidArgument("index column out of range");
  }
  if (FindIndex(column) != nullptr) {
    return Status::AlreadyExists("index on column " + std::to_string(column) +
                                 " already exists");
  }
  if (clustered && has_clustered_) {
    return Status::InvalidArgument(
        "fragment already has a clustered index; a table can be clustered on "
        "at most one attribute");
  }
  auto index = std::make_unique<LocalIndex>(column, clustered);
  // Backfill from existing rows, in heap order.
  std::vector<LocalRowId> lrids;
  lrids.reserve(heap_.num_rows());
  heap_.ForEach([&](LocalRowId lrid, const Row&) {
    lrids.push_back(lrid);
    return true;
  });
  BuildIndex(index.get(), lrids);
  if (clustered) has_clustered_ = true;
  indexes_.push_back(std::move(index));
  // FindExact probes the index from now on; free the hash's buckets too.
  row_lookup_ = decltype(row_lookup_)();
  return Status::OK();
}

const LocalIndex* TableFragment::FindIndex(int column) const {
  for (const auto& idx : indexes_) {
    if (idx->column == column) return idx.get();
  }
  return nullptr;
}

std::vector<const LocalIndex*> TableFragment::Indexes() const {
  std::vector<const LocalIndex*> out;
  out.reserve(indexes_.size());
  for (const auto& idx : indexes_) out.push_back(idx.get());
  return out;
}

Result<LocalRowId> TableFragment::Insert(Row row) {
  PJVM_RETURN_NOT_OK(schema_.ValidateRow(row));
  LocalRowId lrid = heap_.Insert(std::move(row));
  IndexInsert(lrid, *heap_.Get(lrid));
  return lrid;
}

void TableFragment::InsertRun(
    std::vector<Row> rows,
    const std::function<void(LocalRowId, const Row&)>& on_row) {
  // Only an empty fragment's indexes can be built from the run alone.
  const bool bulk = has_indexes() && heap_.num_rows() == 0;
  std::vector<LocalRowId> lrids;
  if (bulk) lrids.reserve(rows.size());
  heap_.Reserve(rows.size());
  for (Row& row : rows) {
    LocalRowId lrid = heap_.Insert(std::move(row));
    const Row& stored = *heap_.Get(lrid);
    if (bulk) {
      lrids.push_back(lrid);
    } else {
      IndexInsert(lrid, stored);
    }
    on_row(lrid, stored);
  }
  if (!bulk) return;
  for (auto& index : indexes_) BuildIndex(index.get(), lrids);
}

void TableFragment::BuildIndex(LocalIndex* index,
                               const std::vector<LocalRowId>& lrids) {
  std::vector<std::pair<const Value*, LocalRowId>> run;
  run.reserve(lrids.size());
  for (LocalRowId lrid : lrids) {
    run.emplace_back(&(*heap_.Get(lrid))[index->column], lrid);
  }
  std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
    return *a.first < *b.first;
  });
  index->tree.BulkLoad(run);
}

Status TableFragment::DeleteByRid(LocalRowId lrid, bool keep_slot) {
  const Row* row = heap_.Get(lrid);
  if (row == nullptr) {
    return Status::NotFound("fragment: no row at lrid " + std::to_string(lrid));
  }
  PJVM_RETURN_NOT_OK(IndexRemove(lrid, *row));
  return keep_slot ? heap_.DeleteKeepSlot(lrid) : heap_.Delete(lrid);
}

Result<LocalRowId> TableFragment::FindExact(const Row& row) const {
  // Candidates in insertion order: the posting list of the most selective
  // index, or the content-hash bucket on an indexless fragment. Both append
  // on insert and erase in place, so among equal rows the earliest surviving
  // insert is found either way.
  const std::vector<LocalRowId>* candidates = nullptr;
  if (indexes_.empty()) {
    auto it = row_lookup_.find(HashRow(row));
    if (it != row_lookup_.end()) candidates = &it->second;
  } else if (row.size() == static_cast<size_t>(schema_.num_columns())) {
    const LocalIndex* best = indexes_.front().get();
    for (const auto& idx : indexes_) {
      if (idx->tree.num_keys() > best->tree.num_keys()) best = idx.get();
    }
    candidates = best->tree.Find(row[best->column]);
  }
  if (candidates != nullptr) {
    for (LocalRowId lrid : *candidates) {
      if (*heap_.Get(lrid) == row) return lrid;
    }
  }
  return Status::NotFound("fragment: row not found: " + RowToString(row));
}

Result<LocalRowId> TableFragment::DeleteExact(const Row& row, bool keep_slot) {
  PJVM_ASSIGN_OR_RETURN(LocalRowId lrid, FindExact(row));
  PJVM_RETURN_NOT_OK(DeleteByRid(lrid, keep_slot));
  return lrid;
}

Status TableFragment::InsertAt(LocalRowId lrid, Row row) {
  PJVM_RETURN_NOT_OK(schema_.ValidateRow(row));
  PJVM_RETURN_NOT_OK(heap_.InsertAt(lrid, std::move(row)));
  IndexInsert(lrid, *heap_.Get(lrid));
  return Status::OK();
}

Result<ProbeResult> TableFragment::Probe(int column, const Value& key) const {
  const LocalIndex* index = FindIndex(column);
  if (index == nullptr) {
    return Status::InvalidArgument("no index on column " +
                                   std::to_string(column));
  }
  ProbeResult out;
  const auto* list = index->tree.Find(key);
  if (list != nullptr) {
    out.rids = *list;
    out.rows.reserve(list->size());
    for (LocalRowId lrid : *list) out.rows.push_back(*heap_.Get(lrid));
  }
  return out;
}

ProbeResult TableFragment::ScanEq(int column, const Value& key) const {
  ProbeResult out;
  heap_.ForEach([&](LocalRowId lrid, const Row& row) {
    if (row[column] == key) {
      out.rows.push_back(row);
      out.rids.push_back(lrid);
    }
    return true;
  });
  return out;
}

std::shared_ptr<const MvccBase> TableFragment::BuildBaseFromLive(
    uint64_t epoch) const {
  auto base = std::make_shared<MvccBase>();
  base->epoch = epoch;
  base->rows_per_page = heap_.rows_per_page();
  base->num_pages = heap_.num_pages();
  base->rows.reserve(heap_.num_rows());
  heap_.ForEach([&](LocalRowId, const Row& row) {
    base->rows.push_back(row);
    return true;
  });
  base->index_meta.reserve(indexes_.size());
  for (const auto& idx : indexes_) {
    base->index_meta.push_back(MvccIndexMeta{idx->column, idx->clustered});
  }
  base->postings.resize(base->index_meta.size());
  for (size_t i = 0; i < base->index_meta.size(); ++i) {
    int col = base->index_meta[i].column;
    for (size_t slot = 0; slot < base->rows.size(); ++slot) {
      base->postings[i][base->rows[slot][col]].push_back(slot);
    }
  }
  return base;
}

void TableFragment::EnableMvcc(uint64_t epoch) {
  if (mvcc_enabled_) return;
  mvcc_enabled_ = true;
  auto state = std::make_shared<MvccState>();
  state->base = BuildBaseFromLive(epoch);
  mvcc_.store(std::move(state), std::memory_order_release);
}

void TableFragment::MvccPublish(uint64_t epoch, std::vector<MvccOp> ops) {
  if (!mvcc_enabled_ || ops.empty()) return;
  std::shared_ptr<const MvccState> old =
      mvcc_.load(std::memory_order_acquire);
  auto delta = std::make_shared<MvccDelta>();
  delta->epoch = epoch;
  delta->num_pages = ops.back().pages_after;
  delta->num_rows = ops.back().rows_after;
  delta->prev = old->head;
  delta->chain_ops =
      ops.size() + (old->head != nullptr ? old->head->chain_ops : 0);
  delta->ops = std::move(ops);
  auto state = std::make_shared<MvccState>();
  state->base = old->base;
  state->head = std::move(delta);
  mvcc_.store(std::move(state), std::memory_order_release);
}

size_t TableFragment::MvccMaybeFold(uint64_t watermark) {
  if (!mvcc_enabled_) return 0;
  std::shared_ptr<const MvccState> old =
      mvcc_.load(std::memory_order_acquire);
  if (old == nullptr || old->head == nullptr) return 0;
  if (old->head->chain_ops < mvcc_fold_ops_) return 0;
  // Folding is all-or-nothing: it waits until the newest delta clears the
  // watermark, then collapses the whole chain. A pinned reader keeps the
  // chain alive (and growing) rather than risking a torn snapshot.
  if (old->head->epoch > watermark) return 0;
  size_t reclaimed = MvccChainLength(*old);
  auto state = std::make_shared<MvccState>();
  state->base = MvccFoldAll(*old);
  mvcc_.store(std::move(state), std::memory_order_release);
  return reclaimed;
}

size_t TableFragment::MvccResetFromLive(uint64_t epoch) {
  if (!mvcc_enabled_) return 0;
  std::shared_ptr<const MvccState> old =
      mvcc_.load(std::memory_order_acquire);
  size_t dropped = old != nullptr ? MvccChainLength(*old) : 0;
  auto state = std::make_shared<MvccState>();
  state->base = BuildBaseFromLive(epoch);
  mvcc_.store(std::move(state), std::memory_order_release);
  return dropped;
}

size_t TableFragment::MvccChainDeltas() const {
  if (!mvcc_enabled_) return 0;
  std::shared_ptr<const MvccState> state =
      mvcc_.load(std::memory_order_acquire);
  return state != nullptr ? MvccChainLength(*state) : 0;
}

void TableFragment::IndexInsert(LocalRowId lrid, const Row& row) {
  if (indexes_.empty()) row_lookup_[HashRow(row)].push_back(lrid);
  for (auto& idx : indexes_) {
    idx->tree.Insert(row[idx->column], lrid);
  }
}

Status TableFragment::IndexRemove(LocalRowId lrid, const Row& row) {
  if (indexes_.empty()) {
    auto it = row_lookup_.find(HashRow(row));
    if (it != row_lookup_.end()) {
      auto& rids = it->second;
      rids.erase(std::find(rids.begin(), rids.end(), lrid));
      if (rids.empty()) row_lookup_.erase(it);
    }
  }
  for (auto& idx : indexes_) {
    PJVM_RETURN_NOT_OK(idx->tree.Remove(row[idx->column], lrid));
  }
  return Status::OK();
}

Status TableFragment::CheckInvariants() const {
  for (const auto& idx : indexes_) {
    PJVM_RETURN_NOT_OK(idx->tree.CheckInvariants());
    if (idx->tree.num_items() != heap_.num_rows()) {
      return Status::Internal(
          "index on column " + std::to_string(idx->column) + " has " +
          std::to_string(idx->tree.num_items()) + " items but heap has " +
          std::to_string(heap_.num_rows()) + " rows");
    }
    // Every index entry must point at a live row with the indexed key.
    Status st = Status::OK();
    idx->tree.ForEachEntry(
        [&](const Value& key, const std::vector<LocalRowId>& rids) {
          for (LocalRowId lrid : rids) {
            const Row* row = heap_.Get(lrid);
            if (row == nullptr) {
              st = Status::Internal("index entry points at dead rid " +
                                    std::to_string(lrid));
              return false;
            }
            if ((*row)[idx->column] != key) {
              st = Status::Internal("index entry key " + key.ToString() +
                                    " mismatches row " + RowToString(*row));
              return false;
            }
          }
          return true;
        });
    PJVM_RETURN_NOT_OK(st);
  }
  if (!indexes_.empty() && !row_lookup_.empty()) {
    return Status::Internal("row lookup kept beside an index");
  }
  if (indexes_.empty()) {
    size_t counted = 0;
    for (const auto& [hash, rids] : row_lookup_) {
      counted += rids.size();
      for (LocalRowId lrid : rids) {
        const Row* row = heap_.Get(lrid);
        if (row == nullptr) {
          return Status::Internal("row-lookup entry points at dead rid");
        }
        if (HashRow(*row) != hash) {
          return Status::Internal("row-lookup hash mismatch");
        }
      }
    }
    if (counted != heap_.num_rows()) {
      return Status::Internal("row-lookup covers " + std::to_string(counted) +
                              " rows, heap has " +
                              std::to_string(heap_.num_rows()));
    }
  }
  return Status::OK();
}

}  // namespace pjvm
