#ifndef SGB_ENGINE_EXPRESSION_H_
#define SGB_ENGINE_EXPRESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/status.h"
#include "engine/row_batch.h"
#include "engine/value.h"

namespace sgb::engine {

/// A bound, executable scalar expression evaluated against one row of a
/// known layout, or against the active rows of a column batch. Produced by the SQL binder (sql/planner.cc) or built
/// directly via the factory functions below when using the engine API.
///
/// Semantics (documented simplifications vs. full SQL):
///  * NULL propagates through arithmetic; comparisons with NULL are false
///    (two-valued logic rather than SQL's three-valued logic).
///  * `/` always yields a double; other int-int arithmetic stays integral.
class Expression {
 public:
  virtual ~Expression() = default;
  virtual Value Evaluate(const Row& row) const = 0;
  /// Replaces `out`'s cells with the expression's value on each active row
  /// of `in`, in order; cell by cell the same values Evaluate() returns.
  virtual void EvaluateBatch(const RowBatch& in, ColumnVector* out) const = 0;
  /// The input column of a plain column reference; nullopt otherwise.
  virtual std::optional<size_t> ColumnIndex() const { return std::nullopt; }
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::unique_ptr<Expression>;

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* ToString(BinaryOp op);

/// References the row cell at `index`; `name` is only for diagnostics.
ExprPtr MakeColumnRef(size_t index, std::string name);

ExprPtr MakeLiteral(Value value);

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);

ExprPtr MakeNot(ExprPtr operand);

/// Negation (unary minus).
ExprPtr MakeNegate(ExprPtr operand);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};
using ValueSet = std::unordered_set<Value, ValueHash, ValueEq>;

/// `expr IN (v1, v2, ...)` against a pre-materialized set — the planner
/// evaluates uncorrelated IN-subqueries eagerly into one of these.
ExprPtr MakeInSet(ExprPtr probe, std::shared_ptr<const ValueSet> set);

/// Built-in scalar functions callable from SQL. DIST_L2 / DIST_LINF
/// evaluate the paper's similarity distances directly in expressions, so
/// similarity joins can be written as ordinary theta-joins:
///   ... WHERE dist_l2(a.x, a.y, b.x, b.y) <= 0.5
enum class ScalarFunction {
  kAbs,       ///< abs(x)
  kSqrt,      ///< sqrt(x); NULL for negative input
  kFloor,     ///< floor(x)
  kCeil,      ///< ceil(x)
  kDistL2,    ///< dist_l2(x1, y1, x2, y2)
  kDistLInf,  ///< dist_linf(x1, y1, x2, y2)
};

/// Resolves a scalar function by SQL name (case-insensitive); NotFound for
/// unknown names.
Result<ScalarFunction> ScalarFunctionFromName(const std::string& name);

/// Number of arguments the function requires.
size_t ScalarFunctionArity(ScalarFunction fn);

ExprPtr MakeScalarCall(ScalarFunction fn, std::vector<ExprPtr> args);

/// `left op right` under the semantics above.
Value EvaluateBinary(BinaryOp op, const Value& left, const Value& right);
Value EvaluateBinary(BinaryOp op, const CellRef& left, const CellRef& right);

/// `expr` over the active rows of `in`. A plain column reference on a batch
/// without a selection borrows the input column; anything else is evaluated
/// into `scratch`.
const ColumnVector& EvaluateColumn(const Expression& expr, const RowBatch& in,
                                   ColumnVector* scratch);

}  // namespace sgb::engine

#endif  // SGB_ENGINE_EXPRESSION_H_
