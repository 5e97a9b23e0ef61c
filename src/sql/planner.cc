#include "sql/planner.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <utility>

#include "engine/sgb_operator.h"
#include "stats/table_stats.h"

namespace sgb::sql {

namespace {

using engine::AggregateKind;
using engine::AggregateSpec;
using engine::BinaryOp;
using engine::Catalog;
using engine::Column;
using engine::DataType;
using engine::ExprPtr;
using engine::Operator;
using engine::OperatorPtr;
using engine::Row;
using engine::Schema;
using engine::Table;
using engine::Value;

/// Wraps a child plan, re-qualifying its schema (used for aliased FROM
/// subqueries so `alias.col` resolves).
class RenameOp final : public Operator {
 public:
  RenameOp(OperatorPtr child, const std::string& qualifier)
      : child_(std::move(child)),
        schema_(child_->schema().WithQualifier(qualifier)) {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Rename"; }
  std::string label() const override {
    return schema_.size() > 0 ? "Rename as " + schema_.column(0).qualifier
                              : name();
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  void OpenImpl() override { child_->Open(); }
  bool NextBatchImpl(engine::RowBatch* out) override {
    return child_->NextBatch(out);
  }

 private:
  OperatorPtr child_;
  Schema schema_;
};

bool IsAggregateCall(const ParsedExpr& e) {
  if (e.kind != ParsedExpr::Kind::kFunction) return false;
  if (e.star_arg) return true;  // count(*)
  return engine::AggregateKindFromName(e.function_name).ok();
}

/// Collects aggregate-call nodes in evaluation order (no nested aggregates:
/// search does not descend into an aggregate call).
void CollectAggregates(const ParsedExpr& e,
                       std::vector<const ParsedExpr*>* out) {
  if (IsAggregateCall(e)) {
    out->push_back(&e);
    return;
  }
  if (e.left != nullptr) CollectAggregates(*e.left, out);
  if (e.right != nullptr) CollectAggregates(*e.right, out);
  for (const auto& arg : e.args) CollectAggregates(*arg, out);
}

// ---- cost model constants -------------------------------------------------
//
// Abstract work factors for the SGB tiers, in units of "one distance
// computation" (~25ns on the reference machine). Only the ratios matter;
// they are fitted to the measured forced-tier matrix from
// bench/bench_planner.cc (docs/PLANNER.md, "Calibration").
/// SGB-All All-Pairs: per candidate pair, including overlap handling.
constexpr double kApPairCostAll = 1.0;
/// SGB-Any All-Pairs: per candidate pair; the union-find merge is far
/// cheaper than SGB-All's membership bookkeeping (~2ns/pair measured).
constexpr double kApPairCostAny = 0.04;
constexpr double kBcGroupCost = 0.12;  ///< Bounds-Checking: cheap bound test
constexpr double kRefineCost = 1.6;    ///< per ε-close pair refined
/// SGB-All's group grid: per-point cell upkeep and probe, plus a fitted
/// log2(groups) term that stands in for the groups each probe classifies
/// where the pair estimate runs low (skewed inputs; docs/PLANNER.md).
constexpr double kIxBuildCost = 6.0;
constexpr double kIxProbeCost = 2.5;
/// SGB-Any's clique-cell grid: flat per point. Dense cells are cliques
/// that cost no distance computation, so there is no pair term.
constexpr double kIxPointCostAny = 5.0;
/// Predicted work above which an unpinned SGB goes parallel (dop = 0).
constexpr double kParallelWorkThreshold = 8e6;
/// Plain GROUP BY: input rows below which sort aggregation never pays.
constexpr double kSortAggMinRows = 1024;
/// Fallback selectivities when statistics cannot price a predicate.
constexpr double kDefaultCompareSel = 1.0 / 3.0;
constexpr double kDefaultEqSel = 0.1;

std::string FormatApprox(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

const char* MetricWord(geom::Metric m) {
  return m == geom::Metric::kLInf ? "linf" : "l2";
}

class PlannerImpl {
 public:
  PlannerImpl(const Catalog& catalog, const PlannerOptions& options,
              PlanInfo* info)
      : catalog_(catalog), options_(options), info_(info) {}

  Result<OperatorPtr> PlanSelect(const SelectStatement& stmt) {
    // ---- FROM + WHERE ---------------------------------------------------
    if (stmt.from.empty()) {
      return Status::BindError("FROM clause is required");
    }
    std::vector<const ParsedExpr*> conjuncts;
    if (stmt.where != nullptr) SplitConjuncts(*stmt.where, &conjuncts);
    std::vector<bool> used(conjuncts.size(), false);

    std::vector<OperatorPtr> items;
    for (const TableRef& ref : stmt.from) {
      auto item = PlanFromItem(ref);
      if (!item.ok()) return item.status();
      items.push_back(std::move(item).value());
    }

    // Filter pushdown: a conjunct whose columns resolve against exactly one
    // FROM item filters that item's scan before any join. (Conjuncts that
    // bind against several items are left for join-key extraction or the
    // residual filter, preserving ambiguity errors.)
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      size_t bound_count = 0;
      size_t bound_item = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        if (BindScalarNoError(*conjuncts[c], items[i]->schema()) != nullptr) {
          ++bound_count;
          bound_item = i;
        }
      }
      if (bound_count != 1) continue;
      auto bound = BindScalar(*conjuncts[c], items[bound_item]->schema());
      if (!bound.ok()) return bound.status();
      stats::TableStatsPtr ts = StatsFor(items[bound_item].get());
      const double in_rows = EstRows(*items[bound_item]);
      const double in_bytes = EstBytes(*items[bound_item]);
      double sel = -1.0;
      if (in_rows >= 0) {
        sel = ConjunctSelectivity(*conjuncts[c], ts.get(),
                                  items[bound_item]->schema());
      }
      items[bound_item] = engine::MakeFilter(std::move(items[bound_item]),
                                             std::move(bound).value());
      if (sel >= 0) {
        Annotate(items[bound_item].get(), in_rows * sel, in_bytes,
                 "sel=" + FormatApprox(sel));
        if (ts != nullptr) stats_by_op_[items[bound_item].get()] = ts;
      }
      used[c] = true;
    }

    OperatorPtr plan;
    for (OperatorPtr& item : items) {
      if (plan == nullptr) {
        plan = std::move(item);
        continue;
      }
      auto joined =
          JoinItem(std::move(plan), std::move(item), conjuncts, &used);
      if (!joined.ok()) return joined.status();
      plan = std::move(joined).value();
    }

    ExprPtr residual;
    double residual_sel = 1.0;
    {
      stats::TableStatsPtr ts = StatsFor(plan.get());
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (used[i]) continue;
        residual_sel *=
            ConjunctSelectivity(*conjuncts[i], ts.get(), plan->schema());
        auto bound = BindScalar(*conjuncts[i], plan->schema());
        if (!bound.ok()) return bound.status();
        residual = residual == nullptr
                       ? std::move(bound).value()
                       : engine::MakeBinary(BinaryOp::kAnd,
                                            std::move(residual),
                                            std::move(bound).value());
      }
    }
    if (residual != nullptr) {
      stats::TableStatsPtr ts = StatsFor(plan.get());
      const double in_rows = EstRows(*plan);
      const double in_bytes = EstBytes(*plan);
      plan = engine::MakeFilter(std::move(plan), std::move(residual));
      if (in_rows >= 0) {
        Annotate(plan.get(), in_rows * residual_sel, in_bytes,
                 "sel=" + FormatApprox(residual_sel));
        if (ts != nullptr) stats_by_op_[plan.get()] = ts;
      }
    }

    // ---- grouping / aggregation -----------------------------------------
    std::vector<const ParsedExpr*> agg_calls;
    for (const SelectItem& item : stmt.items) {
      CollectAggregates(*item.expr, &agg_calls);
    }
    if (stmt.having != nullptr) CollectAggregates(*stmt.having, &agg_calls);
    for (const OrderItem& item : stmt.order_by) {
      CollectAggregates(*item.expr, &agg_calls);
    }

    const bool has_grouping = !stmt.group_by.empty() || !agg_calls.empty();
    if (!has_grouping) {
      if (stmt.having != nullptr) {
        return Status::BindError("HAVING requires GROUP BY or aggregates");
      }
      return FinishScalarQuery(stmt, std::move(plan));
    }
    if (stmt.select_star) {
      return Status::BindError("SELECT * cannot be combined with GROUP BY");
    }
    return FinishGroupedQuery(stmt, std::move(plan), agg_calls);
  }

 private:
  // ---- FROM -------------------------------------------------------------

  Result<OperatorPtr> PlanFromItem(const TableRef& ref) {
    if (ref.subquery != nullptr) {
      auto sub = PlanSelect(*ref.subquery);
      if (!sub.ok()) return sub.status();
      OperatorPtr renamed =
          std::make_unique<RenameOp>(std::move(sub).value(), ref.alias);
      Inherit(renamed);
      return renamed;
    }
    const std::string qualifier =
        ref.alias.empty() ? ref.table_name : ref.alias;
    auto source = catalog_.Find(ref.table_name);
    if (!source.ok()) return source.status();
    OperatorPtr scan =
        engine::MakeTableScan(std::move(source).value(), qualifier);
    if (stats::TableStatsPtr ts = catalog_.GetStats(ref.table_name)) {
      const double rows = static_cast<double>(ts->row_count);
      Annotate(scan.get(), rows,
               rows * static_cast<double>(ts->avg_row_bytes), "analyzed");
      stats_by_op_[scan.get()] = ts;
      info_->used_stats = true;
    }
    return scan;
  }

  static void SplitConjuncts(const ParsedExpr& e,
                             std::vector<const ParsedExpr*>* out) {
    if (e.kind == ParsedExpr::Kind::kBinary && e.op == BinaryOp::kAnd) {
      SplitConjuncts(*e.left, out);
      SplitConjuncts(*e.right, out);
      return;
    }
    out->push_back(&e);
  }

  /// Joins `right` onto `left`, turning applicable equality conjuncts into
  /// hash-join keys; falls back to a cross product.
  Result<OperatorPtr> JoinItem(OperatorPtr left, OperatorPtr right,
                               const std::vector<const ParsedExpr*>& conjuncts,
                               std::vector<bool>* used) {
    const double left_rows = EstRows(*left);
    const double left_bytes = EstBytes(*left);
    const double right_rows = EstRows(*right);
    const double right_bytes = EstBytes(*right);
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*used)[i]) continue;
      const ParsedExpr& e = *conjuncts[i];
      if (e.kind != ParsedExpr::Kind::kBinary || e.op != BinaryOp::kEq) {
        continue;
      }
      if (e.left->kind != ParsedExpr::Kind::kColumn ||
          e.right->kind != ParsedExpr::Kind::kColumn) {
        continue;
      }
      // Try left-side-in-left / right-side-in-right, then swapped.
      for (int swap = 0; swap < 2; ++swap) {
        const ParsedExpr& l = swap == 0 ? *e.left : *e.right;
        const ParsedExpr& r = swap == 0 ? *e.right : *e.left;
        auto lbound = BindScalar(l, left->schema());
        auto rbound = BindScalar(r, right->schema());
        if (lbound.ok() && rbound.ok()) {
          left_keys.push_back(std::move(lbound).value());
          right_keys.push_back(std::move(rbound).value());
          (*used)[i] = true;
          break;
        }
      }
    }
    if (!left_keys.empty()) {
      OperatorPtr join = engine::MakeHashJoin(std::move(left),
                                              std::move(right),
                                              std::move(left_keys),
                                              std::move(right_keys));
      if (left_rows >= 0 && right_rows >= 0) {
        // Equi-join on a key-ish column: output near the larger input; the
        // build side is held twice (rows + hash table).
        Annotate(join.get(), std::max(left_rows, right_rows),
                 std::max(0.0, left_bytes) + std::max(0.0, right_bytes) * 2);
      }
      return join;
    }
    OperatorPtr join = engine::MakeNestedLoopJoin(std::move(left),
                                                  std::move(right), nullptr);
    if (left_rows >= 0 && right_rows >= 0) {
      Annotate(join.get(), left_rows * right_rows,
               std::max(0.0, left_bytes) + std::max(0.0, right_bytes));
    }
    return join;
  }

  // ---- cost model ---------------------------------------------------------

  static void Annotate(Operator* op, double rows, double bytes,
                       std::string note = std::string()) {
    Operator::PlanEstimate est;
    est.rows = rows;
    est.bytes = bytes;
    est.note = std::move(note);
    op->set_plan_estimate(std::move(est));
  }

  static double EstRows(const Operator& op) {
    return op.plan_estimate().rows;
  }
  static double EstBytes(const Operator& op) {
    return op.plan_estimate().bytes;
  }

  stats::TableStatsPtr StatsFor(const Operator* op) const {
    const auto it = stats_by_op_.find(op);
    return it == stats_by_op_.end() ? nullptr : it->second;
  }

  /// Copies the first child's row/byte estimate onto a pass-through
  /// operator (Project, Rename, Sort).
  static void Inherit(const OperatorPtr& op) {
    const auto kids = op->children();
    if (kids.empty()) return;
    const Operator::PlanEstimate& child = kids[0]->plan_estimate();
    if (child.rows < 0 && child.bytes < 0) return;
    Annotate(op.get(), child.rows, child.bytes);
  }

  /// Maps a parsed column reference to its ANALYZE statistics. When the
  /// operator's schema still matches the base table column-for-column the
  /// resolved index is authoritative; otherwise fall back to name lookup.
  const stats::ColumnStats* ResolveColumnStats(const ParsedExpr& col,
                                               const stats::TableStats* ts,
                                               const Schema& schema) const {
    if (ts == nullptr || col.kind != ParsedExpr::Kind::kColumn) {
      return nullptr;
    }
    const Schema::Lookup lookup = schema.Find(col.qualifier, col.name);
    if (lookup.outcome == Schema::LookupOutcome::kFound &&
        schema.size() == ts->columns.size() &&
        lookup.index < ts->columns.size()) {
      return &ts->columns[lookup.index];
    }
    return ts->FindColumn(col.name);
  }

  double EqualitySelectivity(const ParsedExpr& col,
                             const stats::TableStats* ts,
                             const Schema& schema) const {
    const stats::ColumnStats* cs = ResolveColumnStats(col, ts, schema);
    if (cs == nullptr || cs->ndv == 0) return kDefaultEqSel;
    return 1.0 / static_cast<double>(cs->ndv);
  }

  /// Fraction of input rows a WHERE conjunct keeps. Statistics-driven for
  /// column-vs-literal predicates (1/ndv for equality, min/max range
  /// fraction for comparisons); textbook defaults otherwise.
  double ConjunctSelectivity(const ParsedExpr& e, const stats::TableStats* ts,
                             const Schema& schema) const {
    using Kind = ParsedExpr::Kind;
    if (e.kind == Kind::kNot && e.left != nullptr) {
      return std::clamp(1.0 - ConjunctSelectivity(*e.left, ts, schema),
                        0.001, 1.0);
    }
    if (e.kind == Kind::kInList && e.left != nullptr) {
      const double per = EqualitySelectivity(*e.left, ts, schema);
      return std::clamp(per * static_cast<double>(e.args.size()), 0.0, 1.0);
    }
    if (e.kind != Kind::kBinary) return kDefaultCompareSel;
    if (e.op == BinaryOp::kAnd) {
      return ConjunctSelectivity(*e.left, ts, schema) *
             ConjunctSelectivity(*e.right, ts, schema);
    }
    if (e.op == BinaryOp::kOr) {
      const double a = ConjunctSelectivity(*e.left, ts, schema);
      const double b = ConjunctSelectivity(*e.right, ts, schema);
      return std::clamp(a + b - a * b, 0.0, 1.0);
    }
    const ParsedExpr* col = nullptr;
    const ParsedExpr* lit = nullptr;
    bool flipped = false;
    if (e.left->kind == Kind::kColumn && e.right->kind == Kind::kLiteral) {
      col = e.left.get();
      lit = e.right.get();
    } else if (e.right->kind == Kind::kColumn &&
               e.left->kind == Kind::kLiteral) {
      col = e.right.get();
      lit = e.left.get();
      flipped = true;
    }
    switch (e.op) {
      case BinaryOp::kEq:
        return col != nullptr ? EqualitySelectivity(*col, ts, schema)
                              : kDefaultEqSel;
      case BinaryOp::kNe:
        return std::clamp(
            1.0 - (col != nullptr ? EqualitySelectivity(*col, ts, schema)
                                  : kDefaultEqSel),
            0.0, 1.0);
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        const stats::ColumnStats* cs =
            col != nullptr ? ResolveColumnStats(*col, ts, schema) : nullptr;
        if (cs == nullptr || !cs->has_range || lit == nullptr ||
            !lit->literal.IsNumeric() || cs->max <= cs->min) {
          return kDefaultCompareSel;
        }
        double frac =
            (lit->literal.ToDouble() - cs->min) / (cs->max - cs->min);
        frac = std::clamp(frac, 0.0, 1.0);
        bool keep_below = e.op == BinaryOp::kLt || e.op == BinaryOp::kLe;
        if (flipped) keep_below = !keep_below;  // 5 < x  ==  x > 5
        return std::clamp(keep_below ? frac : 1.0 - frac, 0.001, 1.0);
      }
      default:
        return kDefaultCompareSel;
    }
  }

  /// Narrows the similarity operator's input to the columns the GROUP BY
  /// and aggregate arguments actually touch. Only fires over a single
  /// analyzed table (StatsFor chain intact) where every reference resolves
  /// unambiguously; binding happens after, against the projected schema.
  OperatorPtr TryPushProjection(const SelectStatement& stmt,
                                const std::vector<const ParsedExpr*>& agg_calls,
                                OperatorPtr plan) {
    stats::TableStatsPtr ts = StatsFor(plan.get());
    if (ts == nullptr) return plan;
    const Schema& schema = plan->schema();
    std::vector<const ParsedExpr*> stack;
    for (const ParsedExprPtr& g : stmt.group_by) stack.push_back(g.get());
    for (const ParsedExpr* call : agg_calls) {
      for (const auto& arg : call->args) stack.push_back(arg.get());
    }
    std::set<size_t> needed;
    while (!stack.empty()) {
      const ParsedExpr* e = stack.back();
      stack.pop_back();
      if (e->kind == ParsedExpr::Kind::kColumn) {
        const Schema::Lookup lookup = schema.Find(e->qualifier, e->name);
        if (lookup.outcome != Schema::LookupOutcome::kFound) return plan;
        needed.insert(lookup.index);
        continue;
      }
      if (e->kind == ParsedExpr::Kind::kInSubquery) return plan;
      if (e->left != nullptr) stack.push_back(e->left.get());
      if (e->right != nullptr) stack.push_back(e->right.get());
      for (const auto& arg : e->args) stack.push_back(arg.get());
    }
    if (needed.empty() || needed.size() >= schema.size()) return plan;
    std::vector<ExprPtr> exprs;
    std::vector<Column> columns;
    for (size_t idx : needed) {
      exprs.push_back(engine::MakeColumnRef(
          idx, "#" + std::to_string(idx) + "(" + schema.column(idx).name +
                   ")"));
      columns.push_back(schema.column(idx));
    }
    const double rows = EstRows(*plan);
    const double bytes = EstBytes(*plan);
    const double keep =
        static_cast<double>(columns.size()) / static_cast<double>(schema.size());
    OperatorPtr proj = engine::MakeProject(std::move(plan), std::move(exprs),
                                           std::move(columns));
    if (rows >= 0) {
      Annotate(proj.get(), rows, bytes >= 0 ? bytes * keep : bytes,
               "pushdown");
    }
    stats_by_op_[proj.get()] = ts;
    return proj;
  }

  // ---- scalar binding ---------------------------------------------------

  /// Binds `e` against `schema`, producing an executable expression.
  /// Column references become canonical "#<index>(<name>)" refs so two
  /// textually different spellings of the same column compare equal.
  Result<ExprPtr> BindScalar(const ParsedExpr& e, const Schema& schema) {
    switch (e.kind) {
      case ParsedExpr::Kind::kColumn: {
        const Schema::Lookup lookup = schema.Find(e.qualifier, e.name);
        if (lookup.outcome == Schema::LookupOutcome::kAmbiguous) {
          return Status::BindError("ambiguous column '" + e.ToText() + "'");
        }
        if (lookup.outcome == Schema::LookupOutcome::kNotFound) {
          return Status::BindError("unknown column '" + e.ToText() + "'");
        }
        return engine::MakeColumnRef(
            lookup.index,
            "#" + std::to_string(lookup.index) + "(" + e.name + ")");
      }
      case ParsedExpr::Kind::kLiteral:
        return engine::MakeLiteral(e.literal);
      case ParsedExpr::Kind::kBinary: {
        auto left = BindScalar(*e.left, schema);
        if (!left.ok()) return left;
        auto right = BindScalar(*e.right, schema);
        if (!right.ok()) return right;
        return engine::MakeBinary(e.op, std::move(left).value(),
                                  std::move(right).value());
      }
      case ParsedExpr::Kind::kUnaryMinus: {
        auto operand = BindScalar(*e.left, schema);
        if (!operand.ok()) return operand;
        return engine::MakeNegate(std::move(operand).value());
      }
      case ParsedExpr::Kind::kNot: {
        auto operand = BindScalar(*e.left, schema);
        if (!operand.ok()) return operand;
        return engine::MakeNot(std::move(operand).value());
      }
      case ParsedExpr::Kind::kFunction: {
        if (IsAggregateCall(e)) {
          return Status::BindError("aggregate '" + e.ToText() +
                                   "' is not allowed in this context");
        }
        auto fn = engine::ScalarFunctionFromName(e.function_name);
        if (!fn.ok()) {
          return Status::NotSupported("unknown function '" +
                                      e.function_name + "'");
        }
        if (e.args.size() != engine::ScalarFunctionArity(fn.value())) {
          return Status::BindError("wrong argument count for '" +
                                   e.ToText() + "'");
        }
        std::vector<ExprPtr> args;
        for (const auto& arg : e.args) {
          auto bound = BindScalar(*arg, schema);
          if (!bound.ok()) return bound;
          args.push_back(std::move(bound).value());
        }
        return engine::MakeScalarCall(fn.value(), std::move(args));
      }
      case ParsedExpr::Kind::kInList: {
        // p IN (a, b, ...)  ==>  p = a OR p = b OR ...
        ExprPtr chain;
        for (const auto& arg : e.args) {
          auto probe = BindScalar(*e.left, schema);
          if (!probe.ok()) return probe;
          auto item = BindScalar(*arg, schema);
          if (!item.ok()) return item;
          ExprPtr eq = engine::MakeBinary(BinaryOp::kEq,
                                          std::move(probe).value(),
                                          std::move(item).value());
          chain = chain == nullptr
                      ? std::move(eq)
                      : engine::MakeBinary(BinaryOp::kOr, std::move(chain),
                                           std::move(eq));
        }
        if (chain == nullptr) return engine::MakeLiteral(Value::Bool(false));
        return chain;
      }
      case ParsedExpr::Kind::kInSubquery: {
        auto probe = BindScalar(*e.left, schema);
        if (!probe.ok()) return probe;
        // Uncorrelated subquery: execute now, keep the first column.
        auto sub = PlanSelect(*e.subquery);
        if (!sub.ok()) return sub.status();
        auto table = engine::Materialize(*sub.value());
        if (!table.ok()) return table.status();
        if (table.value().schema().size() != 1) {
          return Status::BindError(
              "IN subquery must produce exactly one column");
        }
        auto set = std::make_shared<engine::ValueSet>();
        for (const Row& row : table.value().rows()) {
          if (!row[0].is_null()) set->insert(row[0]);
        }
        return engine::MakeInSet(std::move(probe).value(), std::move(set));
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  // ---- ungrouped SELECT -------------------------------------------------

  Result<OperatorPtr> FinishScalarQuery(const SelectStatement& stmt,
                                        OperatorPtr plan) {
    if (!stmt.select_star) {
      std::vector<ExprPtr> exprs;
      std::vector<Column> columns;
      for (const SelectItem& item : stmt.items) {
        auto bound = BindScalar(*item.expr, plan->schema());
        if (!bound.ok()) return bound.status();
        exprs.push_back(std::move(bound).value());
        columns.push_back(Column{
            item.alias.empty() ? item.expr->ToText() : item.alias,
            DataType::kNull, ""});
      }
      plan = engine::MakeProject(std::move(plan), std::move(exprs),
                                 std::move(columns));
      Inherit(plan);
    }
    return FinishOrderLimit(stmt, std::move(plan));
  }

  // ---- grouped SELECT ---------------------------------------------------

  Result<OperatorPtr> FinishGroupedQuery(
      const SelectStatement& stmt, OperatorPtr plan,
      const std::vector<const ParsedExpr*>& agg_calls) {
    if (stmt.similarity.kind != SimilarityClause::Kind::kNone) {
      plan = TryPushProjection(stmt, agg_calls, std::move(plan));
    }
    const Schema child_schema = plan->schema();

    // Bind group expressions and remember their canonical bound text for
    // select-list matching.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_texts;
    for (const ParsedExprPtr& g : stmt.group_by) {
      auto bound = BindScalar(*g, child_schema);
      if (!bound.ok()) return bound.status();
      group_texts.push_back(bound.value()->ToString());
      group_exprs.push_back(std::move(bound).value());
    }

    // Build aggregate specs.
    std::vector<AggregateSpec> specs;
    for (const ParsedExpr* call : agg_calls) {
      AggregateSpec spec;
      if (call->star_arg) {
        auto kind = engine::AggregateKindFromName(call->function_name);
        if (kind.ok() && kind.value() != AggregateKind::kCount) {
          return Status::BindError("'*' argument requires count(*)");
        }
        if (!EqualsCiCount(call->function_name)) {
          return Status::BindError("'*' argument requires count(*)");
        }
        spec.kind = AggregateKind::kCountStar;
      } else {
        auto kind = engine::AggregateKindFromName(call->function_name);
        if (!kind.ok()) return kind.status();
        spec.kind = kind.value();
        if (call->distinct_arg) {
          if (spec.kind != AggregateKind::kCount) {
            return Status::NotSupported(
                "DISTINCT is only supported inside count()");
          }
          spec.kind = AggregateKind::kCountDistinct;
        }
        if (call->args.size() != engine::AggregateArity(spec.kind)) {
          return Status::BindError("wrong argument count for '" +
                                   call->ToText() + "'");
        }
        for (const auto& arg : call->args) {
          auto bound = BindScalar(*arg, child_schema);
          if (!bound.ok()) return bound.status();
          spec.args.push_back(std::move(bound).value());
        }
      }
      spec.output_name = call->ToText();
      specs.push_back(std::move(spec));
    }

    // Route to the right physical aggregate.
    const SimilarityClause& sim = stmt.similarity;
    size_t agg_col_offset = 0;  // index of the first aggregate output column
    const bool similarity = sim.kind != SimilarityClause::Kind::kNone;
    if (similarity) {
      auto op = BuildSimilarityOperator(stmt, std::move(plan),
                                        std::move(group_exprs),
                                        std::move(specs));
      if (!op.ok()) return op.status();
      plan = std::move(op).value();
      agg_col_offset = 1;  // [group_id, aggs...]
      group_texts.clear();  // raw group columns are not in the output
    } else {
      std::vector<Column> group_columns;
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        const ParsedExpr& g = *stmt.group_by[i];
        const std::string name = g.kind == ParsedExpr::Kind::kColumn
                                     ? g.name
                                     : "group" + std::to_string(i);
        group_columns.push_back(Column{name, DataType::kNull, ""});
      }
      agg_col_offset = group_exprs.size();
      plan = BuildPlainAggregate(stmt, std::move(plan),
                                 std::move(group_exprs),
                                 std::move(group_columns), std::move(specs));
    }

    // Post-grouping contexts (SELECT list, HAVING, ORDER BY) are rebound
    // against the aggregate output.
    PostGroupContext ctx{child_schema, group_texts, agg_calls,
                         agg_col_offset, similarity, plan->schema()};

    if (stmt.having != nullptr) {
      const double in_rows = EstRows(*plan);
      const double in_bytes = EstBytes(*plan);
      auto bound = RebindPostGroup(*stmt.having, ctx);
      if (!bound.ok()) return bound.status();
      plan = engine::MakeFilter(std::move(plan), std::move(bound).value());
      if (in_rows >= 0) {
        Annotate(plan.get(), in_rows * kDefaultCompareSel, in_bytes,
                 "sel=" + FormatApprox(kDefaultCompareSel));
      }
    }

    std::vector<ExprPtr> exprs;
    std::vector<Column> columns;
    for (const SelectItem& item : stmt.items) {
      auto bound = RebindPostGroup(*item.expr, ctx);
      if (!bound.ok()) return bound.status();
      exprs.push_back(std::move(bound).value());
      columns.push_back(Column{
          item.alias.empty() ? item.expr->ToText() : item.alias,
          DataType::kNull, ""});
    }
    plan = engine::MakeProject(std::move(plan), std::move(exprs),
                               std::move(columns));
    Inherit(plan);
    return FinishOrderLimit(stmt, std::move(plan));
  }

  /// Plain GROUP BY: picks hash vs sort aggregation and seeds the hash
  /// table with the predicted group count. Calibration (docs/PLANNER.md)
  /// measured hash faster than sort up to 1M all-distinct keys on the
  /// reference machine, so auto treats sort purely as the bounded-memory
  /// strategy: it is chosen only when nearly every row opens a fresh group
  /// AND the predicted hash table would crowd the session memory budget.
  /// The sort aggregate cannot spill, so auto never picks it for
  /// spill-enabled statements.
  OperatorPtr BuildPlainAggregate(const SelectStatement& stmt,
                                  OperatorPtr plan,
                                  std::vector<ExprPtr> group_exprs,
                                  std::vector<Column> group_columns,
                                  std::vector<AggregateSpec> specs) {
    stats::TableStatsPtr ts = StatsFor(plan.get());
    const double in_rows = EstRows(*plan);
    const double in_bytes = EstBytes(*plan);
    size_t est_groups = 0;
    if (ts != nullptr && in_rows >= 0) {
      double g = 1.0;
      for (const ParsedExprPtr& gexpr : stmt.group_by) {
        double ndv = std::sqrt(std::max(0.0, in_rows));
        const stats::ColumnStats* cs =
            ResolveColumnStats(*gexpr, ts.get(), plan->schema());
        if (cs != nullptr && cs->ndv > 0) {
          ndv = static_cast<double>(cs->ndv);
        }
        g *= std::max(1.0, ndv);
      }
      est_groups = static_cast<size_t>(
          std::clamp(g, 1.0, std::max(1.0, in_rows)));
    }

    bool use_sort = false;
    std::string reason;
    switch (options_.agg_strategy) {
      case AggStrategy::kHash:
        reason = "agg_strategy=hash (forced)";
        break;
      case AggStrategy::kSort:
        use_sort = true;
        reason = "agg_strategy=sort (forced)";
        break;
      case AggStrategy::kAuto: {
        const double hash_bytes = static_cast<double>(est_groups) * 128.0;
        const bool budget_pressure =
            options_.memory_budget_bytes > 0 &&
            hash_bytes >
                0.5 * static_cast<double>(options_.memory_budget_bytes);
        if (est_groups > 0 && in_rows > kSortAggMinRows &&
            static_cast<double>(est_groups) > 0.5 * in_rows &&
            budget_pressure && !options_.spill_enabled) {
          use_sort = true;
          reason = "cost model: est " +
                   FormatApprox(static_cast<double>(est_groups)) +
                   " groups' hash table would crowd the " +
                   FormatApprox(
                       static_cast<double>(options_.memory_budget_bytes)) +
                   "-byte memory budget";
        } else if (est_groups > 0) {
          reason = "cost model: est " +
                   FormatApprox(static_cast<double>(est_groups)) +
                   " groups over " + FormatApprox(in_rows) + " rows";
        } else {
          reason = "no statistics: hash default";
        }
        break;
      }
    }
    if (info_->strategy.empty()) {
      info_->strategy = use_sort ? "sort" : "hash";
      if (info_->reason.empty()) info_->reason = reason;
    }

    OperatorPtr op =
        use_sort ? engine::MakeSortAggregate(std::move(plan),
                                             std::move(group_exprs),
                                             std::move(group_columns),
                                             std::move(specs))
                 : engine::MakeHashAggregate(std::move(plan),
                                             std::move(group_exprs),
                                             std::move(group_columns),
                                             std::move(specs), est_groups);
    if (est_groups > 0) {
      Annotate(op.get(), static_cast<double>(est_groups),
               std::max(0.0, in_bytes) +
                   static_cast<double>(est_groups) * 128.0,
               std::string("strategy=") + (use_sort ? "sort" : "hash"));
    } else {
      Annotate(op.get(), -1.0, -1.0,
               std::string("strategy=") + (use_sort ? "sort" : "hash"));
    }
    return op;
  }

  static bool EqualsCiCount(const std::string& name) {
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return lower == "count";
  }

  Result<OperatorPtr> BuildSimilarityOperator(
      const SelectStatement& stmt, OperatorPtr plan,
      std::vector<ExprPtr> group_exprs, std::vector<AggregateSpec> specs) {
    const SimilarityClause& sim = stmt.similarity;
    switch (sim.kind) {
      case SimilarityClause::Kind::kAll:
      case SimilarityClause::Kind::kAny: {
        if (group_exprs.size() != 2 && group_exprs.size() != 3) {
          return Status::BindError(
              "DISTANCE-TO-ALL/ANY requires two or three GROUP BY "
              "expressions");
        }
        if (!(sim.epsilon >= 0.0)) {
          return Status::BindError("WITHIN threshold must be >= 0");
        }
        // The query's PARALLEL clause wins over the session default.
        int dop = sim.dop.value_or(options_.default_sgb_dop.value_or(1));
        if (dop < 0) {
          return Status::BindError(
              "PARALLEL degree must be >= 0 (0 = auto)");
        }

        // ---- ε-selectivity estimates ----------------------------------
        stats::TableStatsPtr ts = StatsFor(plan.get());
        const double in_rows = EstRows(*plan);
        const double in_bytes = EstBytes(*plan);
        const bool is_all = sim.kind == SimilarityClause::Kind::kAll;
        const std::string metric = MetricWord(sim.metric);
        double n = -1.0;
        double pairs = -1.0;
        double groups = -1.0;
        double cost_ap = -1.0;
        double cost_bc = -1.0;
        double cost_ix = -1.0;
        if (ts != nullptr && ts->row_count > 0) {
          const double sel =
              in_rows >= 0
                  ? std::clamp(
                        in_rows / static_cast<double>(ts->row_count), 0.0,
                        1.0)
                  : 1.0;
          n = in_rows >= 0 ? in_rows : static_cast<double>(ts->row_count);
          pairs = ts->EstimateEpsilonPairs(sim.epsilon, metric, sel);
          groups = ts->EstimateEpsilonGroups(
              sim.epsilon, metric, sel,
              /*transitive=*/sim.kind == SimilarityClause::Kind::kAny);
          const double g = std::max(1.0, groups);
          const double p = std::max(0.0, pairs);
          cost_ap = (is_all ? kApPairCostAll : kApPairCostAny) * n * n;
          cost_bc = kBcGroupCost * n * g + kRefineCost * p;
          cost_ix = is_all ? kIxBuildCost * n +
                                 kIxProbeCost * n * std::log2(g + 2.0) +
                                 kRefineCost * p
                           : kIxPointCostAny * n;
        }

        // ---- tier selection -------------------------------------------
        enum Tier { kTierAllPairs, kTierBounds, kTierIndexed };
        Tier tier = kTierIndexed;
        std::string reason;
        switch (options_.sgb_tier) {
          case TierPolicy::kAllPairs:
            tier = kTierAllPairs;
            reason = "sgb_tier=all_pairs (forced)";
            break;
          case TierPolicy::kBounds:
            tier = is_all ? kTierBounds : kTierIndexed;
            reason = is_all ? "sgb_tier=bounds (forced)"
                            : "sgb_tier=bounds (forced; SGB-Any has no "
                              "bounds tier, using indexed)";
            break;
          case TierPolicy::kIndexed:
            tier = kTierIndexed;
            reason = "sgb_tier=indexed (forced)";
            break;
          case TierPolicy::kAuto: {
            if (n < 0) {
              reason = "no statistics: indexed default";
              break;
            }
            tier = kTierIndexed;
            double best = cost_ix;
            if (is_all && cost_bc < best) {
              tier = kTierBounds;
              best = cost_bc;
            }
            if (cost_ap < best) {
              tier = kTierAllPairs;
            }
            reason = "cost model: n=" + FormatApprox(n) +
                     " pairs=" + FormatApprox(std::max(0.0, pairs)) +
                     " groups=" + FormatApprox(std::max(1.0, groups)) +
                     " cost(ap)=" + FormatApprox(cost_ap) +
                     (is_all ? " cost(bc)=" + FormatApprox(cost_bc) : "") +
                     " cost(ix)=" + FormatApprox(cost_ix);
            break;
          }
        }
        const double work = tier == kTierAllPairs   ? cost_ap
                            : tier == kTierBounds   ? cost_bc
                                                    : cost_ix;

        // ---- dop selection --------------------------------------------
        // Only when neither the query (PARALLEL) nor the session
        // (SET parallel) pinned a degree; results are identical at any
        // dop, so this is purely a throughput decision.
        bool auto_dop = false;
        const bool session_pinned =
            !sim.dop.has_value() && options_.default_sgb_dop.has_value();
        if (!sim.dop.has_value() && !options_.default_sgb_dop.has_value() &&
            work > kParallelWorkThreshold) {
          dop = 0;  // one worker per hardware thread
          auto_dop = true;
        }

        engine::SgbMode mode;
        if (is_all) {
          core::SgbAllOptions options;
          options.epsilon = sim.epsilon;
          options.metric = sim.metric;
          options.on_overlap = sim.on_overlap;
          options.degree_of_parallelism = dop;
          options.algorithm = tier == kTierAllPairs
                                  ? core::SgbAllAlgorithm::kAllPairs
                              : tier == kTierBounds
                                  ? core::SgbAllAlgorithm::kBoundsChecking
                                  : core::SgbAllAlgorithm::kIndexed;
          mode = options;
        } else {
          core::SgbAnyOptions options;
          options.epsilon = sim.epsilon;
          options.metric = sim.metric;
          options.degree_of_parallelism = dop;
          options.algorithm = tier == kTierAllPairs
                                  ? core::SgbAnyAlgorithm::kAllPairs
                                  : core::SgbAnyAlgorithm::kIndexed;
          mode = options;
        }
        OperatorPtr op;
        if (group_exprs.size() == 3) {
          op = engine::MakeSimilarityGroupBy3d(
              std::move(plan), std::move(group_exprs[0]),
              std::move(group_exprs[1]), std::move(group_exprs[2]),
              std::move(mode), std::move(specs));
        } else {
          op = engine::MakeSimilarityGroupBy(
              std::move(plan), std::move(group_exprs[0]),
              std::move(group_exprs[1]), std::move(mode), std::move(specs));
        }
        const char* tier_word = tier == kTierAllPairs ? "all-pairs"
                                : tier == kTierBounds ? "bounds"
                                                      : "indexed";
        if (n >= 0) {
          Annotate(op.get(), std::max(1.0, groups),
                   std::max(0.0, in_bytes) + n * 96.0,
                   std::string("tier=") + tier_word +
                       (auto_dop ? std::string(" dop=auto")
                        : session_pinned ? " dop=" + std::to_string(dop)
                                         : std::string()) +
                       " est_pairs=" + FormatApprox(std::max(0.0, pairs)));
        } else {
          Annotate(op.get(), -1.0, -1.0, std::string("tier=") + tier_word);
        }
        info_->tier = tier_word;
        info_->reason = reason;
        info_->chosen_dop = dop;
        return op;
      }
      case SimilarityClause::Kind::kUnsupervised:
      case SimilarityClause::Kind::kAround:
      case SimilarityClause::Kind::kDelimited: {
        if (group_exprs.size() != 1) {
          return Status::BindError(
              "1-D similarity grouping requires exactly one GROUP BY "
              "expression");
        }
        engine::Sgb1dMode mode;
        if (sim.kind == SimilarityClause::Kind::kUnsupervised) {
          mode = engine::Sgb1dUnsupervised{sim.max_separation.value_or(0.0),
                                           sim.max_diameter};
        } else if (sim.kind == SimilarityClause::Kind::kAround) {
          mode = engine::Sgb1dAround{sim.centers, sim.max_separation,
                                     sim.max_diameter};
        } else {
          mode = engine::Sgb1dDelimited{sim.delimiters};
        }
        return engine::MakeSimilarityGroupBy1d(
            std::move(plan), std::move(group_exprs[0]), std::move(mode),
            std::move(specs));
      }
      case SimilarityClause::Kind::kNone:
        break;
    }
    return Status::Internal("unexpected similarity clause");
  }

  struct PostGroupContext {
    const Schema& child_schema;
    const std::vector<std::string>& group_texts;
    const std::vector<const ParsedExpr*>& agg_calls;
    size_t agg_col_offset;
    bool similarity;
    const Schema& output_schema;
  };

  /// Rebinds an expression over the aggregate output: aggregate calls map
  /// to their output columns, GROUP BY expressions map to group columns
  /// (plain GROUP BY only), `group_id` resolves for SGB outputs, and
  /// literals/operators recurse.
  Result<ExprPtr> RebindPostGroup(const ParsedExpr& e,
                                  const PostGroupContext& ctx) {
    if (IsAggregateCall(e)) {
      for (size_t i = 0; i < ctx.agg_calls.size(); ++i) {
        if (ctx.agg_calls[i] == &e ||
            ctx.agg_calls[i]->ToText() == e.ToText()) {
          const size_t index = ctx.agg_col_offset + i;
          return engine::MakeColumnRef(index,
                                       "#" + std::to_string(index) + "(" +
                                           e.ToText() + ")");
        }
      }
      return Status::Internal("aggregate call was not collected: " +
                              e.ToText());
    }

    // A whole sub-expression equal to a GROUP BY expression becomes a
    // reference to that group column.
    if (!ctx.group_texts.empty()) {
      auto bound = BindScalarNoError(e, ctx.child_schema);
      if (bound != nullptr) {
        const std::string text = bound->ToString();
        for (size_t g = 0; g < ctx.group_texts.size(); ++g) {
          if (ctx.group_texts[g] == text) {
            return engine::MakeColumnRef(g, "#" + std::to_string(g) + "(" +
                                                e.ToText() + ")");
          }
        }
      }
    }

    switch (e.kind) {
      case ParsedExpr::Kind::kLiteral:
        return engine::MakeLiteral(e.literal);
      case ParsedExpr::Kind::kColumn: {
        // `group_id` (or anything else the grouping operator exposes).
        const Schema::Lookup lookup =
            ctx.output_schema.Find(e.qualifier, e.name);
        if (lookup.outcome == Schema::LookupOutcome::kFound) {
          return engine::MakeColumnRef(lookup.index,
                                       "#" + std::to_string(lookup.index) +
                                           "(" + e.name + ")");
        }
        return Status::BindError(
            "column '" + e.ToText() +
            "' must appear in GROUP BY or inside an aggregate");
      }
      case ParsedExpr::Kind::kBinary: {
        auto left = RebindPostGroup(*e.left, ctx);
        if (!left.ok()) return left;
        auto right = RebindPostGroup(*e.right, ctx);
        if (!right.ok()) return right;
        return engine::MakeBinary(e.op, std::move(left).value(),
                                  std::move(right).value());
      }
      case ParsedExpr::Kind::kUnaryMinus: {
        auto operand = RebindPostGroup(*e.left, ctx);
        if (!operand.ok()) return operand;
        return engine::MakeNegate(std::move(operand).value());
      }
      case ParsedExpr::Kind::kNot: {
        auto operand = RebindPostGroup(*e.left, ctx);
        if (!operand.ok()) return operand;
        return engine::MakeNot(std::move(operand).value());
      }
      case ParsedExpr::Kind::kFunction: {
        // Non-aggregate function over aggregate results, e.g.
        // sqrt(sum(x)) in a HAVING clause.
        auto fn = engine::ScalarFunctionFromName(e.function_name);
        if (!fn.ok()) {
          return Status::NotSupported("unknown function '" +
                                      e.function_name + "'");
        }
        if (e.args.size() != engine::ScalarFunctionArity(fn.value())) {
          return Status::BindError("wrong argument count for '" +
                                   e.ToText() + "'");
        }
        std::vector<ExprPtr> args;
        for (const auto& arg : e.args) {
          auto bound = RebindPostGroup(*arg, ctx);
          if (!bound.ok()) return bound;
          args.push_back(std::move(bound).value());
        }
        return engine::MakeScalarCall(fn.value(), std::move(args));
      }
      default:
        return Status::NotSupported(
            "expression '" + e.ToText() +
            "' is not supported after GROUP BY");
    }
  }

  /// BindScalar without surfacing errors (used for structural matching).
  ExprPtr BindScalarNoError(const ParsedExpr& e, const Schema& schema) {
    auto bound = BindScalar(e, schema);
    if (!bound.ok()) return nullptr;
    return std::move(bound).value();
  }

  // ---- ORDER BY / LIMIT -------------------------------------------------

  Result<OperatorPtr> FinishOrderLimit(const SelectStatement& stmt,
                                       OperatorPtr plan) {
    if (!stmt.order_by.empty()) {
      std::vector<engine::SortKey> keys;
      for (const OrderItem& item : stmt.order_by) {
        engine::SortKey key;
        key.ascending = item.ascending;
        const ParsedExpr& e = *item.expr;
        if (e.kind == ParsedExpr::Kind::kLiteral &&
            e.literal.type() == DataType::kInt64) {
          const int64_t pos = e.literal.AsInt();
          if (pos < 1 || static_cast<size_t>(pos) > plan->schema().size()) {
            return Status::BindError("ORDER BY position out of range");
          }
          key.expr = engine::MakeColumnRef(static_cast<size_t>(pos - 1),
                                           "#" + std::to_string(pos - 1));
        } else {
          auto bound = BindScalar(e, plan->schema());
          if (!bound.ok()) {
            return Status::BindError(
                "ORDER BY must reference an output column (alias or "
                "position): " +
                bound.status().message());
          }
          key.expr = std::move(bound).value();
        }
        keys.push_back(std::move(key));
      }
      plan = engine::MakeSort(std::move(plan), std::move(keys));
      Inherit(plan);
    }
    if (stmt.limit.has_value()) {
      const double in_rows = EstRows(*plan);
      const double in_bytes = EstBytes(*plan);
      plan = engine::MakeLimit(std::move(plan), *stmt.limit);
      if (in_rows >= 0) {
        Annotate(plan.get(),
                 std::min(in_rows, static_cast<double>(*stmt.limit)),
                 in_bytes);
      }
    }
    return plan;
  }

  const Catalog& catalog_;
  const PlannerOptions options_;
  PlanInfo* const info_;
  /// Base-table statistics still visible at an operator's output: scans,
  /// then filters/projections over a single analyzed table. Joins and
  /// aggregates break the chain.
  std::unordered_map<const Operator*, stats::TableStatsPtr> stats_by_op_;
};

}  // namespace

Result<OperatorPtr> PlanQuery(const Catalog& catalog,
                              const SelectStatement& stmt) {
  return PlanQuery(catalog, stmt, PlannerOptions{});
}

Result<OperatorPtr> PlanQuery(const Catalog& catalog,
                              const SelectStatement& stmt,
                              const PlannerOptions& options) {
  return PlanQuery(catalog, stmt, options, nullptr);
}

Result<OperatorPtr> PlanQuery(const Catalog& catalog,
                              const SelectStatement& stmt,
                              const PlannerOptions& options, PlanInfo* info) {
  PlanInfo local;
  PlannerImpl planner(catalog, options, info != nullptr ? info : &local);
  auto plan = planner.PlanSelect(stmt);
  if (plan.ok() && info != nullptr) {
    const engine::Operator::PlanEstimate& est = plan.value()->plan_estimate();
    if (est.rows >= 0) info->est_rows = est.rows;
    if (est.bytes >= 0) info->est_bytes = est.bytes;
  }
  return plan;
}

const char* ToString(TierPolicy policy) {
  switch (policy) {
    case TierPolicy::kAuto:
      return "auto";
    case TierPolicy::kAllPairs:
      return "all_pairs";
    case TierPolicy::kBounds:
      return "bounds";
    case TierPolicy::kIndexed:
      return "indexed";
  }
  return "auto";
}

const char* ToString(AggStrategy strategy) {
  switch (strategy) {
    case AggStrategy::kAuto:
      return "auto";
    case AggStrategy::kHash:
      return "hash";
    case AggStrategy::kSort:
      return "sort";
  }
  return "auto";
}

}  // namespace sgb::sql
