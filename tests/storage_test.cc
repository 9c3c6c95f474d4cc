#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "storage/heap_file.h"
#include "storage/stats.h"
#include "storage/table_fragment.h"

namespace pjvm {
namespace {

// ---------------------------------------------------------------- HeapFile

TEST(HeapFileTest, InsertGetDelete) {
  HeapFile heap(4);
  LocalRowId a = heap.Insert({Value{1}});
  LocalRowId b = heap.Insert({Value{2}});
  EXPECT_EQ(heap.num_rows(), 2u);
  ASSERT_NE(heap.Get(a), nullptr);
  EXPECT_EQ((*heap.Get(a))[0], Value{1});
  EXPECT_TRUE(heap.Delete(a).ok());
  EXPECT_EQ(heap.Get(a), nullptr);
  EXPECT_EQ(heap.num_rows(), 1u);
  ASSERT_NE(heap.Get(b), nullptr);
}

TEST(HeapFileTest, DeleteMissingIsNotFound) {
  HeapFile heap;
  EXPECT_TRUE(heap.Delete(0).IsNotFound());
  LocalRowId a = heap.Insert({Value{1}});
  EXPECT_TRUE(heap.Delete(a).ok());
  EXPECT_TRUE(heap.Delete(a).IsNotFound());
}

TEST(HeapFileTest, SlotsAreRecycled) {
  HeapFile heap;
  LocalRowId a = heap.Insert({Value{1}});
  ASSERT_TRUE(heap.Delete(a).ok());
  LocalRowId b = heap.Insert({Value{2}});
  EXPECT_EQ(a, b);
  EXPECT_EQ((*heap.Get(b))[0], Value{2});
}

TEST(HeapFileTest, RidsAreStableAcrossOtherDeletes) {
  HeapFile heap;
  LocalRowId a = heap.Insert({Value{1}});
  LocalRowId b = heap.Insert({Value{2}});
  LocalRowId c = heap.Insert({Value{3}});
  ASSERT_TRUE(heap.Delete(b).ok());
  EXPECT_EQ((*heap.Get(a))[0], Value{1});
  EXPECT_EQ((*heap.Get(c))[0], Value{3});
}

TEST(HeapFileTest, PageAccounting) {
  HeapFile heap(/*rows_per_page=*/4);
  EXPECT_EQ(heap.num_pages(), 0u);
  for (int i = 0; i < 9; ++i) heap.Insert({Value{i}});
  EXPECT_EQ(heap.num_pages(), 3u);  // ceil(9/4)
}

TEST(HeapFileTest, ByteSizeTracksLiveRows) {
  HeapFile heap;
  LocalRowId a = heap.Insert({Value{1}, Value{"abcd"}});  // 8 + 5
  EXPECT_EQ(heap.byte_size(), 13u);
  heap.Insert({Value{2}});
  EXPECT_EQ(heap.byte_size(), 21u);
  ASSERT_TRUE(heap.Delete(a).ok());
  EXPECT_EQ(heap.byte_size(), 8u);
}

TEST(HeapFileTest, UpdateReplacesInPlace) {
  HeapFile heap;
  LocalRowId a = heap.Insert({Value{1}});
  ASSERT_TRUE(heap.Update(a, {Value{9}}).ok());
  EXPECT_EQ((*heap.Get(a))[0], Value{9});
  EXPECT_TRUE(heap.Update(999, {Value{1}}).IsNotFound());
}

TEST(HeapFileTest, ForEachSkipsDeleted) {
  HeapFile heap;
  heap.Insert({Value{1}});
  LocalRowId b = heap.Insert({Value{2}});
  heap.Insert({Value{3}});
  ASSERT_TRUE(heap.Delete(b).ok());
  std::vector<int64_t> seen;
  heap.ForEach([&](LocalRowId, const Row& row) {
    seen.push_back(row[0].AsInt64());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

// ------------------------------------------------------------ TableFragment

Schema KvSchema() {
  return Schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}});
}

TEST(FragmentTest, InsertValidatesSchema) {
  TableFragment frag(KvSchema());
  EXPECT_TRUE(frag.Insert({Value{1}, Value{"a"}}).ok());
  EXPECT_FALSE(frag.Insert({Value{1}}).ok());
  EXPECT_FALSE(frag.Insert({Value{"x"}, Value{"a"}}).ok());
  EXPECT_EQ(frag.num_rows(), 1u);
}

TEST(FragmentTest, IndexProbeFindsMatches) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, /*clustered=*/false).ok());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"a"}}).ok());
  ASSERT_TRUE(frag.Insert({Value{2}, Value{"b"}}).ok());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"c"}}).ok());
  auto probe = frag.Probe(0, Value{1});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows.size(), 2u);
  EXPECT_EQ(frag.Probe(0, Value{99})->rows.size(), 0u);
}

TEST(FragmentTest, ProbeWithoutIndexFails) {
  TableFragment frag(KvSchema());
  EXPECT_FALSE(frag.Probe(0, Value{1}).ok());
  // ScanEq works without an index.
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"a"}}).ok());
  EXPECT_EQ(frag.ScanEq(0, Value{1}).rows.size(), 1u);
}

TEST(FragmentTest, IndexBackfillsExistingRows) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.Insert({Value{5}, Value{"a"}}).ok());
  ASSERT_TRUE(frag.Insert({Value{5}, Value{"b"}}).ok());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  EXPECT_EQ(frag.Probe(0, Value{5})->rows.size(), 2u);
  EXPECT_TRUE(frag.CheckInvariants().ok());
}

TEST(FragmentTest, AtMostOneClusteredIndex) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, /*clustered=*/true).ok());
  EXPECT_FALSE(frag.CreateIndex(1, /*clustered=*/true).ok());
  EXPECT_TRUE(frag.CreateIndex(1, /*clustered=*/false).ok());
}

TEST(FragmentTest, DuplicateIndexRejected) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  EXPECT_EQ(frag.CreateIndex(0, false).code(), StatusCode::kAlreadyExists);
}

TEST(FragmentTest, DeleteExactRemovesOneInstance) {
  // Indexless: the content hash finds each duplicate in turn.
  TableFragment frag(KvSchema());
  Row dup = {Value{1}, Value{"same"}};
  ASSERT_TRUE(frag.Insert(dup).ok());
  ASSERT_TRUE(frag.Insert(dup).ok());
  ASSERT_TRUE(frag.DeleteExact(dup).ok());
  EXPECT_EQ(frag.num_rows(), 1u);
  ASSERT_TRUE(frag.DeleteExact(dup).ok());
  EXPECT_EQ(frag.num_rows(), 0u);
  EXPECT_TRUE(frag.DeleteExact(dup).status().IsNotFound());
}

TEST(FragmentTest, DeleteExactWorksWithoutIndex) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"a"}}).ok());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"b"}}).ok());
  EXPECT_TRUE(frag.DeleteExact({Value{2}, Value{"a"}}).status().IsNotFound());
  auto gone = frag.DeleteExact({Value{1}, Value{"a"}});
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, 0u);
  std::vector<Row> rows;
  frag.ForEach([&](LocalRowId, const Row& row) {
    rows.push_back(row);
    return true;
  });
  EXPECT_EQ(rows, (std::vector<Row>{{Value{1}, Value{"b"}}}));
  EXPECT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

TEST(FragmentTest, IndexedDuplicatesDeleteOneAtATime) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  Row dup = {Value{3}, Value{"same"}};
  ASSERT_TRUE(frag.Insert({Value{3}, Value{"other"}}).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(frag.Insert(dup).ok());
  // Earliest surviving insert first: lrids 1, 2, 3.
  for (LocalRowId want = 1; want <= 3; ++want) {
    auto gone = frag.DeleteExact(dup);
    ASSERT_TRUE(gone.ok());
    EXPECT_EQ(*gone, want);
    EXPECT_EQ(frag.num_rows(), 4u - want);
  }
  EXPECT_TRUE(frag.DeleteExact(dup).status().IsNotFound());
  EXPECT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

TEST(FragmentTest, IndexedDeleteTakesOnlyTheExactRow) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  for (const char* v : {"a", "b", "c"}) {
    ASSERT_TRUE(frag.Insert({Value{1}, Value{v}}).ok());
  }
  EXPECT_TRUE(frag.FindExact({Value{1}, Value{"z"}}).status().IsNotFound());
  EXPECT_TRUE(frag.FindExact({Value{2}, Value{"b"}}).status().IsNotFound());
  auto gone = frag.DeleteExact({Value{1}, Value{"b"}});
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, 1u);
  auto probe = frag.Probe(0, Value{1});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows, (std::vector<Row>{{Value{1}, Value{"a"}},
                                           {Value{1}, Value{"c"}}}));
  EXPECT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

TEST(FragmentTest, CreateIndexDropsRowLookup) {
  TableFragment frag(KvSchema());
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value{i % 10},
                    Value{std::string(1, static_cast<char>('a' + i % 3))}});
    ASSERT_TRUE(frag.Insert(rows.back()).ok());
  }
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  // CheckInvariants rejects a content hash kept beside an index.
  ASSERT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
  for (const Row& row : rows) {
    auto found = frag.FindExact(row);
    ASSERT_TRUE(found.ok()) << RowToString(row);
    EXPECT_EQ(*frag.Get(*found), row);
  }
  for (const Row& row : rows) ASSERT_TRUE(frag.DeleteExact(row).ok());
  EXPECT_EQ(frag.num_rows(), 0u);
  EXPECT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

TEST(FragmentTest, IndexedAndIndexlessTwinsPickTheSameVictim) {
  // The index path and the content hash must return the same lrid for every
  // content lookup — the earliest surviving insert among equal rows — or
  // lrids (and the global-index entries that reference them) would move.
  TableFragment indexed(KvSchema(), /*rows_per_page=*/4);
  TableFragment indexless(KvSchema(), /*rows_per_page=*/4);
  ASSERT_TRUE(indexed.CreateIndex(0, false).ok());
  ASSERT_TRUE(indexed.CreateIndex(1, false).ok());
  Rng rng(2024);
  std::vector<Row> live;
  std::vector<std::pair<LocalRowId, Row>> reserved;  // keep-slot deletes
  auto random_row = [&] {
    return Row{Value{rng.UniformInt(0, 5)},
               Value{std::string(1, static_cast<char>('a' + rng.UniformInt(0, 2)))}};
  };
  for (int step = 0; step < 3000; ++step) {
    int64_t op = rng.UniformInt(0, 9);
    if (op < 4 || live.empty()) {
      Row row = random_row();
      auto a = indexed.Insert(row);
      auto b = indexless.Insert(row);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b) << "step " << step;
      live.push_back(row);
    } else if (op < 7) {
      size_t pick = rng.Next() % live.size();
      bool keep_slot = rng.Bernoulli(0.8);
      auto a = indexed.DeleteExact(live[pick], keep_slot);
      auto b = indexless.DeleteExact(live[pick], keep_slot);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b) << "step " << step;
      if (keep_slot) reserved.emplace_back(*a, live[pick]);
      live.erase(live.begin() + pick);
    } else if (op < 8 && !reserved.empty()) {
      size_t pick = rng.Next() % reserved.size();
      auto [lrid, row] = reserved[pick];
      reserved.erase(reserved.begin() + pick);
      if (rng.Bernoulli(0.5)) {  // abort: restore in place
        ASSERT_TRUE(indexed.InsertAt(lrid, row).ok());
        ASSERT_TRUE(indexless.InsertAt(lrid, row).ok());
        live.push_back(row);
      } else {  // commit: recycle the slot
        indexed.ReleaseSlot(lrid);
        indexless.ReleaseSlot(lrid);
      }
    } else {
      Row probe = rng.Bernoulli(0.5) ? live[rng.Next() % live.size()]
                                     : random_row();
      auto a = indexed.FindExact(probe);
      auto b = indexless.FindExact(probe);
      ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << "step " << step;
      }
    }
  }
  EXPECT_EQ(indexed.num_rows(), live.size());
  auto rows_of = [](const TableFragment& frag) {
    std::vector<Row> rows;
    frag.ForEach([&](LocalRowId, const Row& row) {
      rows.push_back(row);
      return true;
    });
    return rows;
  };
  EXPECT_EQ(rows_of(indexed), rows_of(indexless));
  ASSERT_TRUE(indexed.CheckInvariants().ok()) << indexed.CheckInvariants();
  ASSERT_TRUE(indexless.CheckInvariants().ok()) << indexless.CheckInvariants();
}

TEST(FragmentTest, DeleteMaintainsIndexes) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"a"}}).ok());
  ASSERT_TRUE(frag.Insert({Value{1}, Value{"b"}}).ok());
  ASSERT_TRUE(frag.DeleteExact({Value{1}, Value{"a"}}).ok());
  auto probe = frag.Probe(0, Value{1});
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->rows.size(), 1u);
  EXPECT_EQ(probe->rows[0][1], Value{"b"});
  EXPECT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

TEST(FragmentTest, ProbeReturnsEveryMatchAcrossPages) {
  TableFragment frag(KvSchema(), /*rows_per_page=*/2);
  ASSERT_TRUE(frag.CreateIndex(0, true).ok());
  // Four matching rows across two pages (rids 0..3, 2 per page).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frag.Insert({Value{7}, Value{"x"}}).ok());
  }
  auto probe = frag.Probe(0, Value{7});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows.size(), 4u);
}

TEST(FragmentTest, RandomizedInvariants) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  ASSERT_TRUE(frag.CreateIndex(1, false).ok());
  Rng rng(99);
  std::vector<Row> live;
  for (int step = 0; step < 2000; ++step) {
    if (rng.Bernoulli(0.65) || live.empty()) {
      Row row = {Value{rng.UniformInt(0, 50)},
                 Value{std::string(1, static_cast<char>('a' + rng.UniformInt(0, 25)))}};
      ASSERT_TRUE(frag.Insert(row).ok());
      live.push_back(row);
    } else {
      size_t pick = rng.Next() % live.size();
      ASSERT_TRUE(frag.DeleteExact(live[pick]).ok());
      live.erase(live.begin() + pick);
    }
  }
  EXPECT_EQ(frag.num_rows(), live.size());
  ASSERT_TRUE(frag.CheckInvariants().ok()) << frag.CheckInvariants();
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, ComputeFromIndex) {
  TableFragment frag(KvSchema());
  ASSERT_TRUE(frag.CreateIndex(0, false).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(frag.Insert({Value{i % 4}, Value{"x"}}).ok());
  }
  ColumnStats stats = ComputeColumnStats(frag, 0);
  EXPECT_EQ(stats.row_count, 12u);
  EXPECT_EQ(stats.distinct_count, 4u);
  EXPECT_DOUBLE_EQ(stats.AvgFanout(), 3.0);
}

TEST(StatsTest, ComputeByScanWithoutIndex) {
  TableFragment frag(KvSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(frag.Insert({Value{i % 5}, Value{"x"}}).ok());
  }
  ColumnStats stats = ComputeColumnStats(frag, 0);
  EXPECT_EQ(stats.row_count, 10u);
  EXPECT_EQ(stats.distinct_count, 5u);
}

TEST(StatsTest, MergeSums) {
  ColumnStats merged{10, 5};
  merged += ColumnStats{20, 10};
  EXPECT_EQ(merged.row_count, 30u);
  EXPECT_EQ(merged.distinct_count, 15u);
  EXPECT_DOUBLE_EQ(merged.AvgFanout(), 2.0);
}

TEST(StatsTest, EmptyFanoutIsZero) {
  ColumnStats empty;
  EXPECT_DOUBLE_EQ(empty.AvgFanout(), 0.0);
}

}  // namespace
}  // namespace pjvm
