#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"
#include "storage/merged_tree.h"
#include "storage/row_id.h"

namespace pjvm {
namespace {

using Tree = BPlusTree<uint64_t>;

TEST(BTreeTest, EmptyTree) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_keys(), 0u);
  EXPECT_EQ(t.num_items(), 0u);
  EXPECT_EQ(t.Find(Value{1}), nullptr);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeTest, SingleInsertFind) {
  Tree t;
  t.Insert(Value{5}, 100);
  ASSERT_NE(t.Find(Value{5}), nullptr);
  EXPECT_EQ(t.Find(Value{5})->at(0), 100u);
  EXPECT_EQ(t.Find(Value{6}), nullptr);
  EXPECT_EQ(t.num_keys(), 1u);
  EXPECT_EQ(t.num_items(), 1u);
}

TEST(BTreeTest, DuplicateKeysShareEntry) {
  Tree t;
  t.Insert(Value{5}, 1);
  t.Insert(Value{5}, 2);
  t.Insert(Value{5}, 3);
  const auto* list = t.Find(Value{5});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->size(), 3u);
  EXPECT_EQ(t.num_keys(), 1u);
  EXPECT_EQ(t.num_items(), 3u);
}

TEST(BTreeTest, SplitsKeepAllKeysFindable) {
  Tree t(/*max_keys=*/4);
  for (int64_t i = 0; i < 500; ++i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  EXPECT_GT(t.height(), 1);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_NE(t.Find(Value{i}), nullptr) << "missing key " << i;
  }
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

TEST(BTreeTest, ReverseInsertionOrder) {
  Tree t(4);
  for (int64_t i = 499; i >= 0; --i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  for (int64_t i = 0; i < 500; ++i) ASSERT_NE(t.Find(Value{i}), nullptr);
  EXPECT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
}

// Renders every (key, posting list) entry in key order.
std::string Entries(const Tree& t) {
  std::string out;
  t.ForEachEntry([&](const Value& key, const std::vector<uint64_t>& items) {
    out += key.ToString() + ":";
    for (uint64_t item : items) out += std::to_string(item) + ",";
    out += " ";
    return true;
  });
  return out;
}

// A bottom-up build from a stable-sorted run holds what inserting the run
// item by item holds — posting lists in run order — at every fanout and
// size (empty, one leaf, exact multiples, several levels), and keeps taking
// inserts and removes afterwards.
TEST(BTreeTest, BulkLoadMatchesItemByItemInserts) {
  for (int fanout : {3, 4, 64}) {
    for (int n : {0, 1, 3, 4, 5, 64, 65, 300, 2000}) {
      Rng rng(static_cast<uint64_t>(fanout * 7919 + n));
      std::vector<Value> keys;
      for (int i = 0; i < n; ++i) keys.push_back(Value{rng.UniformInt(0, n / 3)});
      Tree inserted(fanout);
      std::vector<std::pair<const Value*, uint64_t>> run;
      for (int i = 0; i < n; ++i) {
        inserted.Insert(keys[i], static_cast<uint64_t>(i));
        run.emplace_back(&keys[i], static_cast<uint64_t>(i));
      }
      std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
        return *a.first < *b.first;
      });
      Tree built(fanout);
      built.BulkLoad(run);
      ASSERT_TRUE(built.CheckInvariants().ok()) << built.CheckInvariants();
      ASSERT_EQ(Entries(built), Entries(inserted)) << fanout << "/" << n;
      ASSERT_EQ(built.num_keys(), inserted.num_keys());
      ASSERT_EQ(built.num_items(), inserted.num_items());
      for (int i = 0; i < n; i += 2) {
        ASSERT_TRUE(built.Remove(keys[i], static_cast<uint64_t>(i)).ok());
        ASSERT_TRUE(inserted.Remove(keys[i], static_cast<uint64_t>(i)).ok());
      }
      for (int i = 0; i < n / 2; ++i) {
        const Value key{rng.UniformInt(0, n)};
        built.Insert(key, static_cast<uint64_t>(n + i));
        inserted.Insert(key, static_cast<uint64_t>(n + i));
      }
      ASSERT_TRUE(built.CheckInvariants().ok()) << built.CheckInvariants();
      EXPECT_EQ(Entries(built), Entries(inserted)) << fanout << "/" << n;
    }
  }
}

TEST(BTreeTest, RemoveMissingKeyFails) {
  Tree t;
  t.Insert(Value{1}, 10);
  EXPECT_TRUE(t.Remove(Value{2}, 10).IsNotFound());
  EXPECT_TRUE(t.Remove(Value{1}, 99).IsNotFound());
  EXPECT_TRUE(t.Remove(Value{1}, 10).ok());
  EXPECT_TRUE(t.empty());
}

TEST(BTreeTest, RemoveOneDuplicateKeepsOthers) {
  Tree t;
  t.Insert(Value{7}, 1);
  t.Insert(Value{7}, 2);
  EXPECT_TRUE(t.Remove(Value{7}, 1).ok());
  const auto* list = t.Find(Value{7});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->size(), 1u);
  EXPECT_EQ(list->at(0), 2u);
}

TEST(BTreeTest, DeleteEverythingAscending) {
  Tree t(4);
  for (int64_t i = 0; i < 300; ++i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.Remove(Value{i}, static_cast<uint64_t>(i)).ok()) << i;
    ASSERT_TRUE(t.CheckInvariants().ok()) << i << ": " << t.CheckInvariants();
  }
  EXPECT_TRUE(t.empty());
}

TEST(BTreeTest, DeleteEverythingDescending) {
  Tree t(4);
  for (int64_t i = 0; i < 300; ++i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  for (int64_t i = 299; i >= 0; --i) {
    ASSERT_TRUE(t.Remove(Value{i}, static_cast<uint64_t>(i)).ok()) << i;
    ASSERT_TRUE(t.CheckInvariants().ok()) << i << ": " << t.CheckInvariants();
  }
  EXPECT_TRUE(t.empty());
}

TEST(BTreeTest, ScanRangeInOrder) {
  Tree t(8);
  for (int64_t i = 0; i < 100; ++i) t.Insert(Value{i * 2}, static_cast<uint64_t>(i));
  std::vector<int64_t> keys;
  t.ScanRange(Value{10}, Value{30}, [&](const Value& k, const uint64_t&) {
    keys.push_back(k.AsInt64());
    return true;
  });
  std::vector<int64_t> expected = {10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30};
  EXPECT_EQ(keys, expected);
}

TEST(BTreeTest, ScanRangeEarlyStop) {
  Tree t;
  for (int64_t i = 0; i < 20; ++i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  int visits = 0;
  t.ScanRange(Value{0}, Value{19}, [&](const Value&, const uint64_t&) {
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(BTreeTest, ForEachEntryVisitsAllInOrder) {
  Tree t(4);
  for (int64_t i = 50; i >= 1; --i) t.Insert(Value{i}, static_cast<uint64_t>(i));
  int64_t prev = 0;
  size_t count = 0;
  t.ForEachEntry([&](const Value& k, const Tree::PostingList& list) {
    EXPECT_GT(k.AsInt64(), prev);
    prev = k.AsInt64();
    count += list.size();
    return true;
  });
  EXPECT_EQ(count, 50u);
}

TEST(BTreeTest, StringKeys) {
  Tree t(4);
  std::vector<std::string> words = {"pear", "apple", "fig",   "kiwi",
                                    "lime", "mango", "grape", "plum"};
  for (size_t i = 0; i < words.size(); ++i) {
    t.Insert(Value{words[i]}, static_cast<uint64_t>(i));
  }
  for (size_t i = 0; i < words.size(); ++i) {
    const auto* list = t.Find(Value{words[i]});
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->at(0), i);
  }
  // In-order scan yields sorted words.
  std::vector<std::string> scanned;
  t.ForEachEntry([&](const Value& k, const Tree::PostingList&) {
    scanned.push_back(k.AsString());
    return true;
  });
  std::vector<std::string> sorted = words;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(scanned, sorted);
}

TEST(BTreeTest, GlobalRowIdPayload) {
  BPlusTree<GlobalRowId> t;
  t.Insert(Value{1}, GlobalRowId{2, 77});
  t.Insert(Value{1}, GlobalRowId{3, 12});
  const auto* list = t.Find(Value{1});
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0], (GlobalRowId{2, 77}));
  EXPECT_TRUE(t.Remove(Value{1}, GlobalRowId{2, 77}).ok());
  EXPECT_EQ(t.Find(Value{1})->size(), 1u);
}

// Property-style fuzz against a reference std::multimap, over several tree
// fanouts and seeds.
class BTreeFuzzTest : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BTreeFuzzTest, MatchesReferenceUnderRandomOps) {
  auto [max_keys, seed] = GetParam();
  Tree t(max_keys);
  std::multimap<int64_t, uint64_t> ref;
  Rng rng(seed);
  for (int step = 0; step < 4000; ++step) {
    int64_t key = rng.UniformInt(0, 80);
    if (rng.Bernoulli(0.6) || ref.empty()) {
      uint64_t item = rng.Next() % 1000;
      t.Insert(Value{key}, item);
      ref.emplace(key, item);
    } else {
      auto range = ref.equal_range(key);
      if (range.first == range.second) {
        EXPECT_TRUE(t.Remove(Value{key}, 0).IsNotFound());
      } else {
        uint64_t item = range.first->second;
        ASSERT_TRUE(t.Remove(Value{key}, item).ok());
        ref.erase(range.first);
      }
    }
    if (step % 256 == 0) {
      ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
    }
  }
  ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
  EXPECT_EQ(t.num_items(), ref.size());
  // Every reference key's multiset matches.
  for (auto it = ref.begin(); it != ref.end();) {
    int64_t key = it->first;
    std::multiset<uint64_t> want;
    while (it != ref.end() && it->first == key) want.insert(it++->second);
    const auto* list = t.Find(Value{key});
    ASSERT_NE(list, nullptr) << "key " << key;
    std::multiset<uint64_t> got(list->begin(), list->end());
    EXPECT_EQ(got, want) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSeeds, BTreeFuzzTest,
    ::testing::Combine(::testing::Values(4, 8, 64),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Composite-key range scans: the merged co-clustered layout flattens
// (join_key, source_tag, source_pk) into one order-preserving byte string
// (storage/merged_tree.h) and relies on the B+-tree's ScanRange to walk one
// join key's interleaved rows — sources first, view tuples last.
// ---------------------------------------------------------------------------

using StringTree = BPlusTree<uint64_t>;

// Scans [RangeLo(key), RangeHi(key)] and returns the items in scan order.
std::vector<uint64_t> ScanJoinKey(const StringTree& t, const Value& key) {
  std::vector<uint64_t> out;
  t.ScanRange(mergedkey::RangeLo(key), mergedkey::RangeHi(key),
              [&](const Value&, uint64_t item) {
                out.push_back(item);
                return true;
              });
  return out;
}

TEST(MergedKeyBTreeTest, TaggedKeysOrderSourcesBeforeView) {
  // Composite keys for one join key sort by tag: member 0, member 1, view.
  Value key{42};
  std::string a = mergedkey::EncodeComposite(key, mergedkey::kSourceTagFirst,
                                             {Value{int64_t{7}}})
                      .AsString();
  std::string b =
      mergedkey::EncodeComposite(key, mergedkey::kSourceTagFirst + 1,
                                 {Value{int64_t{0}}})
          .AsString();
  std::string v =
      mergedkey::EncodeComposite(key, mergedkey::kViewTag, {Value{int64_t{1}}})
          .AsString();
  EXPECT_LT(a, b);
  EXPECT_LT(b, v);
  // All three share the join key's prefix and decode back to their tags.
  size_t plen = mergedkey::KeyPrefix(key).size();
  EXPECT_EQ(mergedkey::DecodeTag(a, plen), mergedkey::kSourceTagFirst);
  EXPECT_EQ(mergedkey::DecodeTag(b, plen), mergedkey::kSourceTagFirst + 1);
  EXPECT_EQ(mergedkey::DecodeTag(v, plen), mergedkey::kViewTag);
}

TEST(MergedKeyBTreeTest, EncodingPreservesJoinKeyOrder) {
  // Lexicographic order of the encoded prefixes == value order, including
  // negatives (INT64), sign transitions (DOUBLE), and embedded NULs (STRING).
  std::vector<Value> ints = {Value{int64_t{-100}}, Value{int64_t{-1}},
                             Value{int64_t{0}}, Value{int64_t{1}},
                             Value{int64_t{1000}}};
  for (size_t i = 1; i < ints.size(); ++i) {
    EXPECT_LT(mergedkey::KeyPrefix(ints[i - 1]), mergedkey::KeyPrefix(ints[i]));
  }
  std::vector<Value> dbls = {Value{-2.5}, Value{-0.25}, Value{0.0}, Value{0.25},
                             Value{2.5}};
  for (size_t i = 1; i < dbls.size(); ++i) {
    EXPECT_LT(mergedkey::KeyPrefix(dbls[i - 1]), mergedkey::KeyPrefix(dbls[i]));
  }
  std::vector<Value> strs = {Value{std::string("")},
                             Value{std::string("a")},
                             Value{std::string({'a', '\0', 'b'})},
                             Value{std::string("ab")},
                             Value{std::string("b")}};
  for (size_t i = 1; i < strs.size(); ++i) {
    EXPECT_LT(mergedkey::KeyPrefix(strs[i - 1]), mergedkey::KeyPrefix(strs[i]));
  }
}

TEST(MergedKeyBTreeTest, CursorCrossesTagBoundariesInOrder) {
  // Interleave three join keys x two tags x several pks, inserted shuffled;
  // one range descent per join key must yield that key's rows grouped by
  // tag, and nothing from neighboring keys.
  StringTree t(4);
  struct Entry {
    int64_t key;
    uint8_t tag;
    int64_t pk;
    uint64_t item;
  };
  std::vector<Entry> entries;
  uint64_t next = 0;
  for (int64_t key : {10, 20, 30}) {
    for (uint8_t tag :
         {mergedkey::kSourceTagFirst,
          static_cast<uint8_t>(mergedkey::kSourceTagFirst + 1),
          mergedkey::kViewTag}) {
      for (int64_t pk = 0; pk < 4; ++pk) {
        entries.push_back(Entry{key, tag, pk, next++});
      }
    }
  }
  Rng rng(7);
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.Next() % i]);
  }
  for (const Entry& e : entries) {
    t.Insert(mergedkey::EncodeComposite(Value{e.key}, e.tag, {Value{e.pk}}),
             e.item);
  }
  ASSERT_TRUE(t.CheckInvariants().ok()) << t.CheckInvariants();
  for (int64_t key : {10, 20, 30}) {
    std::vector<uint64_t> got = ScanJoinKey(t, Value{key});
    ASSERT_EQ(got.size(), 12u) << "key " << key;
    // Items were numbered in (key, tag, pk) order, so an in-order cursor
    // yields them consecutively — crossing both tag boundaries.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_EQ(got[i], got[i - 1] + 1) << "key " << key << " pos " << i;
    }
  }
  // Early-exit stops inside the range.
  size_t seen = 0;
  t.ScanRange(mergedkey::RangeLo(Value{int64_t{20}}),
              mergedkey::RangeHi(Value{int64_t{20}}),
              [&](const Value&, uint64_t) { return ++seen < 5; });
  EXPECT_EQ(seen, 5u);
}

TEST(MergedKeyBTreeTest, EmptyRangeYieldsNothing) {
  StringTree t(4);
  for (int64_t key : {10, 30}) {
    t.Insert(mergedkey::EncodeComposite(Value{key}, mergedkey::kViewTag,
                                        {Value{int64_t{0}}}),
             static_cast<uint64_t>(key));
  }
  // A key strictly between two populated neighbors scans nothing, as does
  // one beyond both ends — and an empty tree scans nothing at all.
  EXPECT_TRUE(ScanJoinKey(t, Value{int64_t{20}}).empty());
  EXPECT_TRUE(ScanJoinKey(t, Value{int64_t{5}}).empty());
  EXPECT_TRUE(ScanJoinKey(t, Value{int64_t{40}}).empty());
  StringTree empty;
  EXPECT_TRUE(ScanJoinKey(empty, Value{int64_t{10}}).empty());
}

TEST(MergedTreeFragmentTest, BagSemanticsAndByteAccounting) {
  MergedTreeFragment frag;
  Row row = {Value{int64_t{1}}, Value{int64_t{2}}};
  frag.InsertEntry(Value{int64_t{1}}, mergedkey::kViewTag, {}, row);
  frag.InsertEntry(Value{int64_t{1}}, mergedkey::kViewTag, {}, row);
  EXPECT_EQ(frag.num_entries(), 2u);
  EXPECT_GT(frag.byte_size(), 0u);
  // Removing one duplicate keeps the other; removing a missing row fails.
  ASSERT_TRUE(
      frag.RemoveEntry(Value{int64_t{1}}, mergedkey::kViewTag, {}, row).ok());
  EXPECT_EQ(frag.num_entries(), 1u);
  Row other = {Value{int64_t{9}}, Value{int64_t{9}}};
  EXPECT_TRUE(frag.RemoveEntry(Value{int64_t{1}}, mergedkey::kViewTag, {}, other)
                  .IsNotFound());
  ASSERT_TRUE(
      frag.RemoveEntry(Value{int64_t{1}}, mergedkey::kViewTag, {}, row).ok());
  EXPECT_TRUE(frag.empty());
  EXPECT_EQ(frag.byte_size(), 0u);
}

}  // namespace
}  // namespace pjvm
