#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <unordered_set>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace pjvm {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing widget");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing widget");
  EXPECT_EQ(st.ToString(), "Not found: missing widget");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Status FailsThrough() {
  PJVM_RETURN_NOT_OK(Status::Aborted("inner"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status st = FailsThrough();
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(st.message(), "inner");
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> Chain(int x) {
  PJVM_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(*Chain(10), 21);
  EXPECT_FALSE(Chain(-5).ok());
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 9);
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, TypesAndAccessors) {
  Value i{int64_t{7}};
  Value d{3.5};
  Value s{"abc"};
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 7);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value{1}, Value{1});
  EXPECT_NE(Value{1}, Value{2});
  EXPECT_LT(Value{1}, Value{2});
  EXPECT_LT(Value{"a"}, Value{"b"});
  EXPECT_LT(Value{1.0}, Value{1.5});
  EXPECT_GE(Value{"b"}, Value{"b"});
}

TEST(ValueTest, Int64OrderCoversTheFullRange) {
  EXPECT_LT(Value{std::numeric_limits<int64_t>::min()}, Value{-1});
  EXPECT_LT(Value{-1}, Value{0});
  EXPECT_LT(Value{0}, Value{std::numeric_limits<int64_t>::max()});
  EXPECT_FALSE(Value{3} < Value{3});
}

TEST(ValueTest, CrossTypeCompareAborts) {
  EXPECT_DEATH((void)(Value{1} < Value{1.0}),
               "comparing Values of types INT64 and DOUBLE");
  EXPECT_DEATH((void)(Value{"a"} < Value{1}),
               "comparing Values of types STRING and INT64");
}

TEST(ValueTest, HashIsDeterministicAndSpreads) {
  EXPECT_EQ(Value{42}.Hash(), Value{42}.Hash());
  EXPECT_EQ(Value{"xyz"}.Hash(), Value{"xyz"}.Hash());
  // Different values should essentially never collide in a small sample.
  std::unordered_set<uint64_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) hashes.insert(Value{i}.Hash());
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(ValueTest, NegativeZeroHashesLikePositiveZero) {
  EXPECT_EQ(Value{0.0}.Hash(), Value{-0.0}.Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value{5}.ToString(), "5");
  EXPECT_EQ(Value{"hi"}.ToString(), "hi");
  EXPECT_EQ(Value{2.5}.ToString(), "2.5");
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value{5}.ByteSize(), 8u);
  EXPECT_EQ(Value{2.5}.ByteSize(), 8u);
  EXPECT_EQ(Value{"abcd"}.ByteSize(), 5u);
}

// ---------------------------------------------------------------- Row

TEST(RowTest, HashDistinguishesPermutations) {
  Row a = {Value{1}, Value{2}};
  Row b = {Value{2}, Value{1}};
  EXPECT_NE(HashRow(a), HashRow(b));
  EXPECT_EQ(HashRow(a), HashRow(Row{Value{1}, Value{2}}));
}

TEST(RowTest, ProjectAndConcat) {
  Row r = {Value{10}, Value{"x"}, Value{2.5}};
  Row p = ProjectRow(r, {2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value{2.5});
  EXPECT_EQ(p[1], Value{10});
  Row c = ConcatRows(Row{Value{1}}, Row{Value{2}, Value{3}});
  EXPECT_EQ(c, (Row{Value{1}, Value{2}, Value{3}}));
}

TEST(RowTest, ToStringFormatsTuples) {
  EXPECT_EQ(RowToString(Row{Value{1}, Value{"a"}}), "(1, a)");
}

TEST(RowTest, EncodingRoundTripsAndRejectsTruncation) {
  const Row row = {Value{-7}, Value{2.5}, Value{std::string("x\0y", 3)},
                   Value{""}};
  std::string bytes;
  AppendEncodedRow(row, &bytes);
  ASSERT_EQ(bytes.size(), EncodedRowSize(row));
  Row out = {Value{"stale"}, Value{1}, Value{2}, Value{3}, Value{4}};
  const char* end = bytes.data() + bytes.size();
  EXPECT_EQ(DecodeRow(bytes.data(), end, &out), end);
  EXPECT_EQ(out, row);
  // Every strict prefix is rejected, read from a buffer of exactly that
  // size so an over-read is a sanitizer report, not a silent pass.
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::unique_ptr<char[]> prefix(new char[n]);
    std::memcpy(prefix.get(), bytes.data(), n);
    EXPECT_EQ(DecodeRow(prefix.get(), prefix.get() + n, &out), nullptr)
        << "prefix of " << n << " bytes";
  }
  // An unknown type tag is rejected too, and so is a value count the bytes
  // cannot hold.
  std::string bad = bytes;
  bad[sizeof(uint32_t)] = 9;
  EXPECT_EQ(DecodeRow(bad.data(), bad.data() + bad.size(), &out), nullptr);
  bad = bytes;
  const uint32_t huge = 0xffffffffu;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  EXPECT_EQ(DecodeRow(bad.data(), bad.data() + bad.size(), &out), nullptr);
}

// ---------------------------------------------------------------- Schema

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

TEST(SchemaTest, ColumnLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.ColumnIndex("id"), 0);
  EXPECT_EQ(*s.ColumnIndex("score"), 2);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
  EXPECT_TRUE(s.HasColumn("name"));
  EXPECT_FALSE(s.HasColumn("nope"));
}

TEST(SchemaTest, ValidateRow) {
  Schema s = TestSchema();
  EXPECT_TRUE(s.ValidateRow({Value{1}, Value{"a"}, Value{1.0}}).ok());
  // Wrong arity.
  EXPECT_FALSE(s.ValidateRow({Value{1}, Value{"a"}}).ok());
  // Wrong type.
  EXPECT_FALSE(s.ValidateRow({Value{1}, Value{2}, Value{1.0}}).ok());
}

TEST(SchemaTest, ConcatPrefixesNames) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"y", ValueType::kString}});
  Schema c = Schema::Concat(a, "A", b, "B");
  ASSERT_EQ(c.num_columns(), 2);
  EXPECT_EQ(c.column(0).name, "A.x");
  EXPECT_EQ(c.column(1).name, "B.y");
}

TEST(SchemaTest, ProjectKeepsOrder) {
  Schema p = TestSchema().Project({2, 0});
  ASSERT_EQ(p.num_columns(), 2);
  EXPECT_EQ(p.column(0).name, "score");
  EXPECT_EQ(p.column(1).name, "id");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
  // Every bucket of a small range gets hit.
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, ChargesAccumulatePerNode) {
  CostTracker t(3);
  t.ChargeSearch(0);
  t.ChargeFetch(0, 4);
  t.ChargeWrite(1, CostTracker::WriteKind::kBase);
  t.ChargeSend(2, 100);
  EXPECT_EQ(t.node(0).searches, 1u);
  EXPECT_EQ(t.node(0).fetches, 4u);
  EXPECT_EQ(t.node(1).inserts, 1u);
  EXPECT_EQ(t.node(2).sends, 1u);
  EXPECT_EQ(t.node(2).bytes_sent, 100u);
}

TEST(MetricsTest, PaperWeightsByDefault) {
  CostTracker t(2);
  t.ChargeSearch(0);      // 1 I/O
  t.ChargeFetch(0, 2);    // 2 I/O
  t.ChargeWrite(1, CostTracker::WriteKind::kBase);  // 2 I/O
  t.ChargeSend(1, 10);    // 0 I/O with default weights
  EXPECT_DOUBLE_EQ(t.TotalWorkload(), 5.0);
  EXPECT_DOUBLE_EQ(t.ResponseTime(), 3.0);  // Node 0 carries 3 I/Os.
}

TEST(MetricsTest, NodesTouchedCountsActiveNodes) {
  CostTracker t(4);
  EXPECT_EQ(t.NodesTouched(), 0);
  t.ChargeSearch(1);
  t.ChargeSend(3, 1);
  EXPECT_EQ(t.NodesTouched(), 2);
}

TEST(MetricsTest, ResetClears) {
  CostTracker t(2);
  t.ChargeWrite(0, CostTracker::WriteKind::kView, 5);
  t.Reset();
  EXPECT_DOUBLE_EQ(t.TotalWorkload(), 0.0);
  EXPECT_EQ(t.NodesTouched(), 0);
}

TEST(MetricsTest, SnapshotDiffIsolatesPhases) {
  CostTracker t(2);
  t.ChargeSearch(0, 3);
  auto before = t.Snapshot();
  t.ChargeSearch(0, 2);
  t.ChargeWrite(1, CostTracker::WriteKind::kStructure, 1);
  NodeCounters d0 = t.node(0) - before[0];
  NodeCounters d1 = t.node(1) - before[1];
  EXPECT_EQ(d0.searches, 2u);
  EXPECT_EQ(d1.inserts, 1u);
}

}  // namespace
}  // namespace pjvm
