#ifndef PJVM_COMMON_ROW_H_
#define PJVM_COMMON_ROW_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace pjvm {

/// \brief A tuple: a fixed-width sequence of Values described by a Schema.
using Row = std::vector<Value>;

/// Stable 64-bit hash of a whole row (order-sensitive).
uint64_t HashRow(const Row& row);

/// "(v0, v1, ...)" rendering for logs and test failure messages.
std::string RowToString(const Row& row);

/// Returns the row restricted to `indices`, in that order.
Row ProjectRow(const Row& row, const std::vector<int>& indices);

/// Concatenates two rows (used to form join output tuples).
Row ConcatRows(const Row& a, const Row& b);

/// Approximate byte footprint of a row (sum of value footprints).
size_t RowByteSize(const Row& row);

/// \name Byte encoding of rows
/// The durable form of a row, shared by the write-ahead log and checkpoint
/// images: a u32 value count, then per value a one-byte ValueType tag and
/// either 8 bytes (INT64, or DOUBLE's exact bit pattern) or a u32 length and
/// the string's bytes. Fixed-width fields are in host byte order and carry
/// no alignment: the bytes never leave the process.
/// @{

/// Bytes EncodeRow writes for `row`.
size_t EncodedRowSize(std::span<const Value> row);

/// Writes `row`'s encoding at `out`, which must have EncodedRowSize(row)
/// bytes of room, and returns the byte after it.
char* EncodeRow(std::span<const Value> row, char* out);

/// Appends `row`'s encoding to `out`.
void AppendEncodedRow(std::span<const Value> row, std::string* out);

/// Decodes the row that starts at `in` into `out`, reusing its storage.
/// Returns the byte after the row, or nullptr when the encoding would run
/// past `end` or carries an unknown tag.
const char* DecodeRow(const char* in, const char* end, Row* out);

/// @}

/// std::hash-compatible functor for Row.
struct RowHash {
  size_t operator()(const Row& row) const {
    return static_cast<size_t>(HashRow(row));
  }
};

/// Multiplicity of each row in a bag, keyed by value: RowHash and Value's
/// ==, the equality content deletes use, so DOUBLEs differing in any digit
/// are different rows. Consistency checks and delta matching compare bags
/// of this type; RowToString is for diagnostic text only.
using RowCounts = std::unordered_map<Row, int, RowHash>;

/// Lexicographic comparison helpers for sorting rows by one key column.
struct RowKeyLess {
  int key_col;
  bool operator()(const Row& a, const Row& b) const {
    return a[key_col] < b[key_col];
  }
};

}  // namespace pjvm

#endif  // PJVM_COMMON_ROW_H_
