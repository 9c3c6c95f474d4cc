#include "storage/mvcc.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace pjvm {

namespace {

/// Deltas visible at `epoch`, oldest first (application order). The chain
/// is newest-first and epochs decrease along it, so the visible portion is
/// a suffix; collect then reverse.
std::vector<const MvccDelta*> VisibleDeltas(const MvccState& state,
                                            uint64_t epoch) {
  std::vector<const MvccDelta*> deltas;
  for (const MvccDelta* d = state.head.get(); d != nullptr;
       d = d->prev.get()) {
    if (d->epoch <= epoch) deltas.push_back(d);
  }
  std::reverse(deltas.begin(), deltas.end());
  return deltas;
}

/// Newest delta visible at `epoch`, or nullptr (shape queries).
const MvccDelta* NewestVisible(const MvccState& state, uint64_t epoch) {
  for (const MvccDelta* d = state.head.get(); d != nullptr;
       d = d->prev.get()) {
    if (d->epoch <= epoch) return d;
  }
  return nullptr;
}

/// Fully composed visible image: base rows then chain inserts in commit
/// order, with deletes tombstoning (nulling) one content-equal entry each.
/// Entries left null are deleted; callers skip them.
std::vector<const Row*> VisibleRows(const MvccState& state, uint64_t epoch) {
  const MvccBase& base = *state.base;
  std::vector<const Row*> rows;
  rows.reserve(base.rows.size());
  // hash(row) -> slot in `rows`, for content-equal delete resolution.
  std::unordered_multimap<uint64_t, size_t> by_hash;
  by_hash.reserve(base.rows.size());
  for (const Row& row : base.rows) {
    by_hash.emplace(HashRow(row), rows.size());
    rows.push_back(&row);
  }
  for (const MvccDelta* d : VisibleDeltas(state, epoch)) {
    for (const MvccOp& op : d->ops) {
      if (op.kind == MvccOp::Kind::kInsert) {
        by_hash.emplace(HashRow(op.row), rows.size());
        rows.push_back(&op.row);
      } else {
        auto [begin, end] = by_hash.equal_range(HashRow(op.row));
        for (auto it = begin; it != end; ++it) {
          if (*rows[it->second] == op.row) {
            rows[it->second] = nullptr;
            by_hash.erase(it);
            break;
          }
        }
      }
    }
  }
  return rows;
}

int IndexOrdinal(const MvccBase& base, int column) {
  for (size_t i = 0; i < base.index_meta.size(); ++i) {
    if (base.index_meta[i].column == column) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

const MvccIndexMeta* MvccFindIndex(const MvccState& state, int column) {
  if (state.base == nullptr) return nullptr;
  int ord = IndexOrdinal(*state.base, column);
  return ord < 0 ? nullptr : &state.base->index_meta[ord];
}

size_t MvccNumPages(const MvccState& state, uint64_t epoch) {
  const MvccDelta* d = NewestVisible(state, epoch);
  return d != nullptr ? d->num_pages : state.base->num_pages;
}

size_t MvccNumRows(const MvccState& state, uint64_t epoch) {
  // Composed exactly, not taken from the newest visible delta's rows_after:
  // that count was captured at op-execution time, and commits from other
  // transactions may interleave between an op and its publish, so it is
  // only exact single-threaded. Row counts must be exact at any epoch (the
  // torn-read tests compare |JV| against fanout * |A|).
  if (state.head == nullptr) return state.base->rows.size();
  size_t count = 0;
  for (const Row* row : VisibleRows(state, epoch)) {
    if (row != nullptr) ++count;
  }
  return count;
}

MvccProbeOut MvccProbe(const MvccState& state, uint64_t epoch, int column,
                       const Value& key) {
  MvccProbeOut out;
  const MvccBase& base = *state.base;
  // Matches in arrival order: base postings first, then chain ops applied
  // in commit order. A delete drops one content-equal match — the victim
  // necessarily carried `key` in `column`, so restricting to key-matching
  // ops loses nothing.
  std::vector<const Row*> matches;
  int ord = IndexOrdinal(base, column);
  if (ord >= 0) {
    auto it = base.postings[ord].find(key);
    if (it != base.postings[ord].end()) {
      matches.reserve(it->second.size());
      for (size_t slot : it->second) {
        matches.push_back(&base.rows[slot]);
      }
    }
  } else {
    for (const Row& row : base.rows) {
      if (row[column] == key) matches.push_back(&row);
    }
  }
  for (const MvccDelta* d : VisibleDeltas(state, epoch)) {
    for (const MvccOp& op : d->ops) {
      if (!(op.row[column] == key)) continue;
      if (op.kind == MvccOp::Kind::kInsert) {
        matches.push_back(&op.row);
      } else {
        for (auto it = matches.begin(); it != matches.end(); ++it) {
          if (**it == op.row) {
            matches.erase(it);
            break;
          }
        }
      }
    }
  }
  out.rows.reserve(matches.size());
  for (const Row* row : matches) out.rows.push_back(*row);
  return out;
}

size_t MvccProbeCount(const MvccState& state, uint64_t epoch, int column,
                      const Value& key) {
  const MvccBase& base = *state.base;
  size_t count = 0;
  int ord = IndexOrdinal(base, column);
  if (ord >= 0) {
    auto it = base.postings[ord].find(key);
    if (it != base.postings[ord].end()) count = it->second.size();
  } else {
    for (const Row& row : base.rows) {
      if (row[column] == key) ++count;
    }
  }
  for (const MvccDelta* d : VisibleDeltas(state, epoch)) {
    for (const MvccOp& op : d->ops) {
      if (!(op.row[column] == key)) continue;
      if (op.kind == MvccOp::Kind::kInsert) {
        ++count;
      } else if (count > 0) {
        --count;
      }
    }
  }
  return count;
}

size_t MvccScanRange(const MvccState& state, uint64_t epoch, int column,
                     const Value& lo, const Value& hi, std::vector<Row>* out) {
  const MvccBase& base = *state.base;
  int ord = IndexOrdinal(base, column);
  size_t delivered = 0;
  if (ord >= 0) {
    // Keys present in the visible range: base postings plus any key a
    // visible chain op touches (a chain insert may introduce a new key).
    std::set<Value> keys;
    const auto& postings = base.postings[ord];
    for (auto it = postings.lower_bound(lo);
         it != postings.end() && (it->first < hi || it->first == hi); ++it) {
      keys.insert(it->first);
    }
    for (const MvccDelta* d : VisibleDeltas(state, epoch)) {
      for (const MvccOp& op : d->ops) {
        const Value& v = op.row[column];
        if ((lo < v || lo == v) && (v < hi || v == hi)) keys.insert(v);
      }
    }
    for (const Value& key : keys) {
      MvccProbeOut probe = MvccProbe(state, epoch, column, key);
      delivered += probe.rows.size();
      out->insert(out->end(), std::make_move_iterator(probe.rows.begin()),
                  std::make_move_iterator(probe.rows.end()));
    }
  } else {
    for (const Row* row : VisibleRows(state, epoch)) {
      if (row == nullptr) continue;
      const Value& v = (*row)[column];
      if ((lo < v || lo == v) && (v < hi || v == hi)) {
        out->push_back(*row);
        ++delivered;
      }
    }
  }
  return delivered;
}

void MvccForEachRow(const MvccState& state, uint64_t epoch,
                    const std::function<void(const Row&)>& fn) {
  for (const Row* row : VisibleRows(state, epoch)) {
    if (row != nullptr) fn(*row);
  }
}

size_t MvccChainLength(const MvccState& state) {
  size_t n = 0;
  for (const MvccDelta* d = state.head.get(); d != nullptr; d = d->prev.get()) {
    ++n;
  }
  return n;
}

std::shared_ptr<const MvccBase> MvccFoldAll(const MvccState& state) {
  auto folded = std::make_shared<MvccBase>();
  const MvccBase& old = *state.base;
  folded->epoch = state.head != nullptr ? state.head->epoch : old.epoch;
  folded->rows_per_page = old.rows_per_page;
  folded->num_pages =
      state.head != nullptr ? state.head->num_pages : old.num_pages;
  folded->index_meta = old.index_meta;
  // Compose at the head epoch: every delta folds in.
  std::vector<const Row*> live = VisibleRows(state, folded->epoch);
  folded->rows.reserve(live.size());
  for (const Row* row : live) {
    if (row != nullptr) folded->rows.push_back(*row);
  }
  folded->postings.resize(folded->index_meta.size());
  for (size_t i = 0; i < folded->index_meta.size(); ++i) {
    int col = folded->index_meta[i].column;
    for (size_t slot = 0; slot < folded->rows.size(); ++slot) {
      folded->postings[i][folded->rows[slot][col]].push_back(slot);
    }
  }
  return folded;
}

}  // namespace pjvm
