#include "common/row.h"

#include <cstring>

namespace pjvm {

namespace {

template <typename T>
char* Put(char* out, T v) {
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

// Reads a T at `in` if it fits before `end`; nullptr otherwise.
template <typename T>
const char* Get(const char* in, const char* end, T* v) {
  if (in == nullptr || static_cast<size_t>(end - in) < sizeof(T)) {
    return nullptr;
  }
  std::memcpy(v, in, sizeof(T));
  return in + sizeof(T);
}

}  // namespace

uint64_t HashRow(const Row& row) {
  // Combine per-value hashes with a boost::hash_combine-style mixer so that
  // permutations of the same values hash differently.
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (row.size() * 0x100000001b3ULL);
  for (const Value& v : row) {
    uint64_t x = v.Hash();
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  }
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

Row ProjectRow(const Row& row, const std::vector<int>& indices) {
  Row out;
  out.reserve(indices.size());
  for (int i : indices) out.push_back(row[i]);
  return out;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

size_t RowByteSize(const Row& row) {
  size_t n = 0;
  for (const Value& v : row) n += v.ByteSize();
  return n;
}

size_t EncodedRowSize(std::span<const Value> row) {
  size_t n = sizeof(uint32_t);
  for (const Value& v : row) {
    n += 1 + (v.is_string() ? sizeof(uint32_t) + v.AsString().size()
                            : sizeof(uint64_t));
  }
  return n;
}

char* EncodeRow(std::span<const Value> row, char* out) {
  out = Put(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    *out++ = static_cast<char>(v.type());
    switch (v.type()) {
      case ValueType::kInt64:
        out = Put(out, v.AsInt64());
        break;
      case ValueType::kDouble:
        out = Put(out, v.AsDouble());
        break;
      case ValueType::kString: {
        const std::string& s = v.AsString();
        out = Put(out, static_cast<uint32_t>(s.size()));
        std::memcpy(out, s.data(), s.size());
        out += s.size();
        break;
      }
    }
  }
  return out;
}

void AppendEncodedRow(std::span<const Value> row, std::string* out) {
  const size_t at = out->size();
  out->resize(at + EncodedRowSize(row));
  EncodeRow(row, out->data() + at);
}

const char* DecodeRow(const char* in, const char* end, Row* out) {
  uint32_t n = 0;
  in = Get(in, end, &n);
  // Every value takes at least 5 bytes (a tag and a string length), so a
  // count the bytes cannot hold is rejected before it sizes `out`.
  if (in == nullptr || n > static_cast<size_t>(end - in) / 5) return nullptr;
  out->resize(n);
  for (Value& v : *out) {
    uint8_t tag = 0;
    in = Get(in, end, &tag);
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kInt64: {
        int64_t x = 0;
        in = Get(in, end, &x);
        v = Value{x};
        break;
      }
      case ValueType::kDouble: {
        double x = 0;
        in = Get(in, end, &x);
        v = Value{x};
        break;
      }
      case ValueType::kString: {
        uint32_t len = 0;
        in = Get(in, end, &len);
        if (in == nullptr || static_cast<size_t>(end - in) < len) {
          return nullptr;
        }
        v = Value{std::string(in, len)};
        in += len;
        break;
      }
      default:
        return nullptr;
    }
    if (in == nullptr) return nullptr;
  }
  return in;
}

}  // namespace pjvm
