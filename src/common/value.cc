#include "common/value.h"

#include <cstdio>
#include <cstdlib>

namespace pjvm {

namespace {

// SplitMix64 finalizer: a strong, deterministic 64-bit mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void TypeMismatch(const char* want, ValueType got) {
  std::fprintf(stderr, "PJVM fatal: Value type mismatch: wanted %s, got %s\n",
               want, ValueTypeToString(got));
  std::abort();
}

[[noreturn]] [[gnu::cold]] void CompareTypeMismatch(ValueType a,
                                                   ValueType b) {
  std::fprintf(stderr, "PJVM fatal: comparing Values of types %s and %s\n",
               ValueTypeToString(a), ValueTypeToString(b));
  std::abort();
}

}  // namespace

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt64() const {
  if (!is_int64()) TypeMismatch("INT64", type());
  return std::get<int64_t>(repr_);
}

double Value::AsDouble() const {
  if (!is_double()) TypeMismatch("DOUBLE", type());
  return std::get<double>(repr_);
}

const std::string& Value::AsString() const {
  if (!is_string()) TypeMismatch("STRING", type());
  return std::get<std::string>(repr_);
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(std::get<int64_t>(repr_)));
    case ValueType::kDouble: {
      double d = std::get<double>(repr_);
      if (d == 0.0) d = 0.0;  // Normalize -0.0 to +0.0 so they hash equally.
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 0x5bd1e9955bd1e995ULL);
    }
    case ValueType::kString: {
      // FNV-1a over the bytes, then mixed.
      const std::string& s = std::get<std::string>(repr_);
      uint64_t h = 0xcbf29ce484222325ULL;
      for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
      }
      return Mix64(h);
    }
  }
  return 0;
}

size_t Value::ByteSize() const {
  switch (type()) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 8;
    case ValueType::kString:
      return std::get<std::string>(repr_).size() + 1;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(repr_));
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(repr_));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(repr_);
  }
  return "";
}

bool Value::LessNotBothInt64(const Value& a, const Value& b) {
  if (a.type() != b.type()) CompareTypeMismatch(a.type(), b.type());
  return a.repr_ < b.repr_;
}

Value AddValues(const Value& a, const Value& b, bool negate_b) {
  if (a.is_int64()) {
    return Value{a.AsInt64() + (negate_b ? -b.AsInt64() : b.AsInt64())};
  }
  return Value{a.AsDouble() + (negate_b ? -b.AsDouble() : b.AsDouble())};
}

}  // namespace pjvm
