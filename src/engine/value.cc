#include "engine/value.h"

#include <charconv>
#include <cstdio>
#include <functional>

namespace sgb::engine {

const char* ToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

double Value::ToDouble() const { return CellRef::Of(*this).ToDouble(); }

bool Value::ToBool() const { return CellRef::Of(*this).ToBool(); }

std::string Value::ToString() const {
  if (type() == DataType::kString) return AsString();
  std::string out;
  CellRef::Of(*this).AppendText(&out);
  return out;
}

int Value::Compare(const Value& a, const Value& b) {
  return CellRef::Compare(CellRef::Of(a), CellRef::Of(b));
}

size_t Value::Hash() const { return CellRef::Of(*this).Hash(); }

// ---- CellRef ---------------------------------------------------------------

namespace {

/// Type rank for cross-type ordering: NULL < numeric < string.
int TypeRank(DataType type) {
  switch (type) {
    case DataType::kNull:
      return 0;
    case DataType::kInt64:
    case DataType::kDouble:
      return 1;
    case DataType::kString:
      return 2;
  }
  return 3;
}

}  // namespace

int CellRef::Compare(const CellRef& a, const CellRef& b) {
  const int ra = TypeRank(a.type);
  const int rb = TypeRank(b.type);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
        return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      const double x = a.ToDouble();
      const double y = b.ToDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      const int c = a.s->compare(*b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

size_t CellRef::Hash() const {
  switch (type) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kInt64:
      // Hash integral doubles and int64s alike so == implies equal hash.
      return std::hash<double>()(static_cast<double>(i));
    case DataType::kDouble:
      return std::hash<double>()(d);
    case DataType::kString:
      return std::hash<std::string>()(*s);
  }
  return 0;
}

void CellRef::AppendText(std::string* out) const {
  switch (type) {
    case DataType::kNull:
      out->append("NULL");
      return;
    case DataType::kInt64: {
      char digits[24];  // std::to_string's digits, without a temporary
      out->append(digits, std::to_chars(digits, digits + sizeof digits, i).ptr);
      return;
    }
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d);
      out->append(buf);
      return;
    }
    case DataType::kString:
      out->append(*s);
      return;
  }
}

Value CellRef::ToValue() const {
  switch (type) {
    case DataType::kInt64:
      return Value::Int(i);
    case DataType::kDouble:
      return Value::Double(d);
    case DataType::kString:
      return Value::Str(*s);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = 0x811c9dc5;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], b[i]) != 0) return false;
  }
  return true;
}

}  // namespace sgb::engine
