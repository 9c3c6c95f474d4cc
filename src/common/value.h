#ifndef PJVM_COMMON_VALUE_H_
#define PJVM_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>

#include "common/status.h"

namespace pjvm {

/// \brief Runtime type of a Value / column.
enum class ValueType {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Human-readable type name ("INT64" etc.).
const char* ValueTypeToString(ValueType t);

/// \brief A dynamically-typed SQL value: INT64, DOUBLE, or STRING.
///
/// Values are totally ordered within a type (comparisons across types are a
/// programming error and abort), hashable, and cheap to copy for the numeric
/// types. They are the unit of partitioning, indexing, and join-key
/// comparison throughout the engine.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  Value(int64_t v) : repr_(v) {}             // NOLINT(runtime/explicit)
  Value(int v) : repr_(int64_t{v}) {}        // NOLINT(runtime/explicit)
  Value(double v) : repr_(v) {}              // NOLINT(runtime/explicit)
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT(runtime/explicit)

  ValueType type() const { return static_cast<ValueType>(repr_.index()); }

  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  /// Typed accessors abort on type mismatch (programming error).
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Stable 64-bit hash; equal values hash equally. Used for partitioning,
  /// so it must be deterministic across runs and platforms.
  uint64_t Hash() const;

  /// Approximate on-disk footprint in bytes (used for Table 1 size reports).
  size_t ByteSize() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  /// Total order; comparing values of different types aborts. Inline with
  /// the INT64 case first: it is the B+-tree descent's key compare.
  friend bool operator<(const Value& a, const Value& b) {
    const int64_t* ai = std::get_if<int64_t>(&a.repr_);
    const int64_t* bi = std::get_if<int64_t>(&b.repr_);
    if (ai != nullptr && bi != nullptr) return *ai < *bi;
    return LessNotBothInt64(a, b);
  }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

 private:
  /// operator< for every other pair: DOUBLE and STRING order, and the
  /// cross-type abort.
  static bool LessNotBothInt64(const Value& a, const Value& b);

  std::variant<int64_t, double, std::string> repr_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// Numeric a + b (a - b with `negate_b`), in a's type: the aggregate
/// accumulation step shared by views, escrow and WAL replay.
Value AddValues(const Value& a, const Value& b, bool negate_b = false);

/// std::hash-compatible functor for Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return static_cast<size_t>(v.Hash()); }
};

}  // namespace pjvm

#endif  // PJVM_COMMON_VALUE_H_
