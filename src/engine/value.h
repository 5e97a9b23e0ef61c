#ifndef SGB_ENGINE_VALUE_H_
#define SGB_ENGINE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace sgb::engine {

/// Column data types of the mini relational engine. The engine is
/// dynamically typed at the Value level (like SQLite): every cell knows its
/// own type, and numeric operators coerce int64 <-> double.
enum class DataType {
  kNull,
  kInt64,
  kDouble,
  kString,
};

const char* ToString(DataType type);

/// A single SQL value. Small, copyable, value-semantic.
class Value {
 public:
  Value() = default;  // NULL
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Payload(v)); }
  static Value Double(double v) { return Value(Payload(v)); }
  static Value Str(std::string v) { return Value(Payload(std::move(v))); }
  static Value Bool(bool v) { return Int(v ? 1 : 0); }

  DataType type() const {
    switch (payload_.index()) {
      case 0:
        return DataType::kNull;
      case 1:
        return DataType::kInt64;
      case 2:
        return DataType::kDouble;
      default:
        return DataType::kString;
    }
  }

  bool is_null() const { return payload_.index() == 0; }
  bool IsNumeric() const {
    return type() == DataType::kInt64 || type() == DataType::kDouble;
  }

  int64_t AsInt() const { return std::get<int64_t>(payload_); }
  double AsDouble() const { return std::get<double>(payload_); }
  const std::string& AsString() const { return std::get<std::string>(payload_); }
  /// Moves the string payload out, leaving an empty string behind.
  std::string TakeString() { return std::move(std::get<std::string>(payload_)); }

  /// The semantics below are CellRef's (one definition for both).

  /// Numeric coercion; 0.0 for NULL, parse-free 0.0 for strings.
  double ToDouble() const;

  /// SQL truthiness: non-zero numeric. NULL and strings are false.
  bool ToBool() const;

  /// Human-readable rendering ("NULL", numerics, raw string).
  std::string ToString() const;

  /// Three-way comparison for ORDER BY / join keys / group keys.
  /// NULL sorts first; numerics compare by value across int64/double;
  /// cross-type (string vs numeric) compares by type rank. Returns -1/0/1.
  static int Compare(const Value& a, const Value& b);

  /// Equality consistent with Compare()==0 (used by hash grouping).
  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }

  /// Hash consistent with operator== (int64 2.0 and double 2.0 collide).
  size_t Hash() const;

 private:
  using Payload = std::variant<std::monostate, int64_t, double, std::string>;
  explicit Value(Payload payload) : payload_(std::move(payload)) {}

  Payload payload_;
};

/// A borrowed view of one cell, typed by the cell's own DataType. Readers of
/// column batches (aggregates, ANALYZE, predicates) consume cells through it
/// without building a Value. It holds the one definition of the engine's
/// cell semantics: Value's coercion, order, hash and text forward to it.
struct CellRef {
  DataType type = DataType::kNull;
  int64_t i = 0;
  double d = 0.0;
  const std::string* s = nullptr;  ///< kString only; borrowed

  static CellRef Of(const Value& v) {
    CellRef cell;
    cell.type = v.type();
    switch (cell.type) {
      case DataType::kInt64:
        cell.i = v.AsInt();
        break;
      case DataType::kDouble:
        cell.d = v.AsDouble();
        break;
      case DataType::kString:
        cell.s = &v.AsString();
        break;
      case DataType::kNull:
        break;
    }
    return cell;
  }
  /// NULL first, numerics by value (int64 pairs exactly), then strings.
  static int Compare(const CellRef& a, const CellRef& b);
  bool is_null() const { return type == DataType::kNull; }
  /// int64 widened; 0.0 for NULL and strings.
  double ToDouble() const {
    if (type == DataType::kInt64) return static_cast<double>(i);
    return type == DataType::kDouble ? d : 0.0;
  }
  /// Non-zero numeric.
  bool ToBool() const {
    if (type == DataType::kInt64) return i != 0;
    return type == DataType::kDouble && d != 0.0;
  }
  /// Consistent with Compare()==0: int64 2 and double 2.0 collide.
  size_t Hash() const;
  /// Appends the cell's text ("NULL", integer digits, %.6g, raw string).
  void AppendText(std::string* out) const;
  Value ToValue() const;
};

using Row = std::vector<Value>;

/// Hash/equality functors for composite keys (GROUP BY, hash join).
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace sgb::engine

#endif  // SGB_ENGINE_VALUE_H_
