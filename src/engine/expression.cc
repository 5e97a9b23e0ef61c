#include "engine/expression.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>
#include <vector>

namespace sgb::engine {

const char* ToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

Value EvaluateBinary(BinaryOp op, const Value& left, const Value& right) {
  return EvaluateBinary(op, CellRef::Of(left), CellRef::Of(right));
}

Value EvaluateBinary(BinaryOp op, const CellRef& left, const CellRef& right) {
  switch (op) {
    case BinaryOp::kAnd:
      return Value::Bool(left.ToBool() && right.ToBool());
    case BinaryOp::kOr:
      return Value::Bool(left.ToBool() || right.ToBool());
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (left.is_null() || right.is_null()) return Value::Bool(false);
      const int c = CellRef::Compare(left, right);
      switch (op) {
        case BinaryOp::kEq:
          return Value::Bool(c == 0);
        case BinaryOp::kNe:
          return Value::Bool(c != 0);
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (left.is_null() || right.is_null()) return Value::Null();
      const bool integral = left.type == DataType::kInt64 &&
                            right.type == DataType::kInt64 &&
                            op != BinaryOp::kDiv;
      if (integral) {
        const int64_t a = left.i;
        const int64_t b = right.i;
        switch (op) {
          case BinaryOp::kAdd:
            return Value::Int(a + b);
          case BinaryOp::kSub:
            return Value::Int(a - b);
          default:
            return Value::Int(a * b);
        }
      }
      const double a = left.ToDouble();
      const double b = right.ToDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Double(a + b);
        case BinaryOp::kSub:
          return Value::Double(a - b);
        case BinaryOp::kMul:
          return Value::Double(a * b);
        default:
          return Value::Double(a / b);
      }
    }
  }
  return Value::Null();
}

const ColumnVector& EvaluateColumn(const Expression& expr, const RowBatch& in,
                                   ColumnVector* scratch) {
  const std::optional<size_t> column = expr.ColumnIndex();
  if (column.has_value() && !in.has_selection()) return in.column(*column);
  expr.EvaluateBatch(in, scratch);
  return *scratch;
}

namespace {

class ColumnRefExpr final : public Expression {
 public:
  ColumnRefExpr(size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}
  Value Evaluate(const Row& row) const override { return row[index_]; }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    out->Clear();
    const ColumnVector& column = in.column(index_);
    if (in.has_selection()) {
      out->Gather(column, in.selection().data(), in.size());
    } else {
      out->AppendRange(column, 0, in.num_rows());
    }
  }
  std::optional<size_t> ColumnIndex() const override { return index_; }
  std::string ToString() const override { return name_; }

 private:
  size_t index_;
  std::string name_;
};

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Value Evaluate(const Row&) const override { return value_; }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    out->Clear();
    for (size_t i = 0; i < in.size(); ++i) out->Append(value_);
  }
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

class BinaryExpr final : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Value Evaluate(const Row& row) const override {
    return EvaluateBinary(op_, left_->Evaluate(row), right_->Evaluate(row));
  }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    ColumnVector left_scratch;
    ColumnVector right_scratch;
    const ColumnVector& left = EvaluateColumn(*left_, in, &left_scratch);
    const ColumnVector& right = EvaluateColumn(*right_, in, &right_scratch);
    out->Clear();
    for (size_t i = 0; i < in.size(); ++i) {
      out->Append(EvaluateBinary(op_, left.CellAt(i), right.CellAt(i)));
    }
  }
  std::string ToString() const override {
    return "(" + left_->ToString() + " " + sgb::engine::ToString(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr final : public Expression {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Value Evaluate(const Row& row) const override {
    return Value::Bool(!operand_->Evaluate(row).ToBool());
  }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    ColumnVector scratch;
    const ColumnVector& operand = EvaluateColumn(*operand_, in, &scratch);
    out->Clear();
    for (size_t i = 0; i < in.size(); ++i) {
      out->AppendInt(operand.CellAt(i).ToBool() ? 0 : 1);
    }
  }
  std::string ToString() const override {
    return "(NOT " + operand_->ToString() + ")";
  }

 private:
  ExprPtr operand_;
};

class NegateExpr final : public Expression {
 public:
  explicit NegateExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Value Evaluate(const Row& row) const override {
    return Negate(CellRef::Of(operand_->Evaluate(row)));
  }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    ColumnVector scratch;
    const ColumnVector& operand = EvaluateColumn(*operand_, in, &scratch);
    out->Clear();
    for (size_t i = 0; i < in.size(); ++i) {
      out->Append(Negate(operand.CellAt(i)));
    }
  }
  std::string ToString() const override {
    return "(-" + operand_->ToString() + ")";
  }

 private:
  static Value Negate(const CellRef& v) {
    if (v.type == DataType::kInt64) return Value::Int(-v.i);
    if (v.type == DataType::kDouble) return Value::Double(-v.d);
    return Value::Null();
  }

  ExprPtr operand_;
};

class InSetExpr final : public Expression {
 public:
  InSetExpr(ExprPtr probe, std::shared_ptr<const ValueSet> set)
      : probe_(std::move(probe)), set_(std::move(set)) {}
  Value Evaluate(const Row& row) const override {
    return Value::Bool(Contains(probe_->Evaluate(row)));
  }
  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    ColumnVector scratch;
    const ColumnVector& probe = EvaluateColumn(*probe_, in, &scratch);
    out->Clear();
    for (size_t i = 0; i < in.size(); ++i) {
      out->AppendInt(Contains(probe.ValueAt(i)) ? 1 : 0);
    }
  }
  std::string ToString() const override {
    return probe_->ToString() + " IN (<" + std::to_string(set_->size()) +
           " values>)";
  }

 private:
  bool Contains(const Value& v) const {
    return !v.is_null() && set_->count(v) > 0;
  }

  ExprPtr probe_;
  std::shared_ptr<const ValueSet> set_;
};

}  // namespace

ExprPtr MakeColumnRef(size_t index, std::string name) {
  return std::make_unique<ColumnRefExpr>(index, std::move(name));
}

ExprPtr MakeLiteral(Value value) {
  return std::make_unique<LiteralExpr>(std::move(value));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeNot(ExprPtr operand) {
  return std::make_unique<NotExpr>(std::move(operand));
}

ExprPtr MakeNegate(ExprPtr operand) {
  return std::make_unique<NegateExpr>(std::move(operand));
}

ExprPtr MakeInSet(ExprPtr probe, std::shared_ptr<const ValueSet> set) {
  return std::make_unique<InSetExpr>(std::move(probe), std::move(set));
}

Result<ScalarFunction> ScalarFunctionFromName(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "abs") return ScalarFunction::kAbs;
  if (lower == "sqrt") return ScalarFunction::kSqrt;
  if (lower == "floor") return ScalarFunction::kFloor;
  if (lower == "ceil" || lower == "ceiling") return ScalarFunction::kCeil;
  if (lower == "dist_l2" || lower == "distance_l2") {
    return ScalarFunction::kDistL2;
  }
  if (lower == "dist_linf" || lower == "distance_linf") {
    return ScalarFunction::kDistLInf;
  }
  return Status::NotFound("'" + name + "' is not a scalar function");
}

size_t ScalarFunctionArity(ScalarFunction fn) {
  switch (fn) {
    case ScalarFunction::kAbs:
    case ScalarFunction::kSqrt:
    case ScalarFunction::kFloor:
    case ScalarFunction::kCeil:
      return 1;
    case ScalarFunction::kDistL2:
    case ScalarFunction::kDistLInf:
      return 4;
  }
  return 0;
}

namespace {

const char* ScalarFunctionName(ScalarFunction fn) {
  switch (fn) {
    case ScalarFunction::kAbs:
      return "abs";
    case ScalarFunction::kSqrt:
      return "sqrt";
    case ScalarFunction::kFloor:
      return "floor";
    case ScalarFunction::kCeil:
      return "ceil";
    case ScalarFunction::kDistL2:
      return "dist_l2";
    case ScalarFunction::kDistLInf:
      return "dist_linf";
  }
  return "?";
}

class ScalarCallExpr final : public Expression {
 public:
  ScalarCallExpr(ScalarFunction fn, std::vector<ExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}

  Value Evaluate(const Row& row) const override {
    Value v[4];
    for (size_t i = 0; i < args_.size(); ++i) v[i] = args_[i]->Evaluate(row);
    return Apply(v);
  }

  void EvaluateBatch(const RowBatch& in, ColumnVector* out) const override {
    std::vector<ColumnVector> scratch(args_.size());
    std::vector<const ColumnVector*> args;
    for (size_t a = 0; a < args_.size(); ++a) {
      args.push_back(&EvaluateColumn(*args_[a], in, &scratch[a]));
    }
    out->Clear();
    Value v[4];
    for (size_t i = 0; i < in.size(); ++i) {
      for (size_t a = 0; a < args.size(); ++a) v[a] = args[a]->ValueAt(i);
      out->Append(Apply(v));
    }
  }

  std::string ToString() const override {
    std::string out = ScalarFunctionName(fn_);
    out += '(';
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->ToString();
    }
    out += ')';
    return out;
  }

 private:
  /// The function on its evaluated arguments; NULL if any is NULL.
  Value Apply(const Value* v) const {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (v[i].is_null()) return Value::Null();
    }
    switch (fn_) {
      case ScalarFunction::kAbs:
        if (v[0].type() == DataType::kInt64) {
          return Value::Int(std::llabs(v[0].AsInt()));
        }
        return Value::Double(std::fabs(v[0].ToDouble()));
      case ScalarFunction::kSqrt: {
        const double x = v[0].ToDouble();
        if (x < 0) return Value::Null();
        return Value::Double(std::sqrt(x));
      }
      case ScalarFunction::kFloor:
        return Value::Double(std::floor(v[0].ToDouble()));
      case ScalarFunction::kCeil:
        return Value::Double(std::ceil(v[0].ToDouble()));
      case ScalarFunction::kDistL2: {
        const double dx = v[0].ToDouble() - v[2].ToDouble();
        const double dy = v[1].ToDouble() - v[3].ToDouble();
        return Value::Double(std::sqrt(dx * dx + dy * dy));
      }
      case ScalarFunction::kDistLInf: {
        const double dx = std::fabs(v[0].ToDouble() - v[2].ToDouble());
        const double dy = std::fabs(v[1].ToDouble() - v[3].ToDouble());
        return Value::Double(std::fmax(dx, dy));
      }
    }
    return Value::Null();
  }

  ScalarFunction fn_;
  std::vector<ExprPtr> args_;
};

}  // namespace

ExprPtr MakeScalarCall(ScalarFunction fn, std::vector<ExprPtr> args) {
  return std::make_unique<ScalarCallExpr>(fn, std::move(args));
}

}  // namespace sgb::engine
