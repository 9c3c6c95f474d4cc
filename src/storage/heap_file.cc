#include "storage/heap_file.h"

#include <algorithm>

namespace pjvm {

HeapFile::HeapFile(int rows_per_page) : rows_per_page_(rows_per_page) {}

LocalRowId HeapFile::Insert(Row row) {
  byte_size_ += RowByteSize(row);
  ++live_count_;
  if (!free_list_.empty()) {
    LocalRowId lrid = free_list_.back();
    free_list_.pop_back();
    slots_[lrid] = std::move(row);
    return lrid;
  }
  slots_.push_back(std::move(row));
  return static_cast<LocalRowId>(slots_.size() - 1);
}

void HeapFile::Reserve(size_t rows) {
  const size_t recycled = std::min(rows, free_list_.size());
  const size_t needed = slots_.size() + rows - recycled;
  if (needed > slots_.capacity()) {
    slots_.reserve(std::max(needed, 2 * slots_.capacity()));
  }
}

const Row* HeapFile::Get(LocalRowId lrid) const {
  if (lrid >= slots_.size() || !slots_[lrid].has_value()) return nullptr;
  return &*slots_[lrid];
}

Status HeapFile::Delete(LocalRowId lrid) {
  PJVM_RETURN_NOT_OK(DeleteKeepSlot(lrid));
  free_list_.push_back(lrid);
  return Status::OK();
}

Status HeapFile::DeleteKeepSlot(LocalRowId lrid) {
  if (lrid >= slots_.size() || !slots_[lrid].has_value()) {
    return Status::NotFound("heap: no row at lrid " + std::to_string(lrid));
  }
  byte_size_ -= RowByteSize(*slots_[lrid]);
  --live_count_;
  slots_[lrid].reset();
  return Status::OK();
}

Status HeapFile::InsertAt(LocalRowId lrid, Row row) {
  if (lrid >= slots_.size() || slots_[lrid].has_value()) {
    return Status::Internal("heap: slot " + std::to_string(lrid) +
                            " is not an empty reserved slot");
  }
  byte_size_ += RowByteSize(row);
  ++live_count_;
  slots_[lrid] = std::move(row);
  return Status::OK();
}

Status HeapFile::Update(LocalRowId lrid, Row row) {
  if (lrid >= slots_.size() || !slots_[lrid].has_value()) {
    return Status::NotFound("heap: no row at lrid " + std::to_string(lrid));
  }
  byte_size_ -= RowByteSize(*slots_[lrid]);
  byte_size_ += RowByteSize(row);
  slots_[lrid] = std::move(row);
  return Status::OK();
}

void HeapFile::ForEach(
    const std::function<bool(LocalRowId, const Row&)>& fn) const {
  for (LocalRowId lrid = 0; lrid < slots_.size(); ++lrid) {
    if (slots_[lrid].has_value()) {
      if (!fn(lrid, *slots_[lrid])) return;
    }
  }
}

size_t HeapFile::num_pages() const {
  return (slots_.size() + rows_per_page_ - 1) / rows_per_page_;
}

}  // namespace pjvm
