#ifndef SGB_SQL_AST_H_
#define SGB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sgb_types.h"
#include "engine/expression.h"
#include "engine/schema.h"
#include "engine/value.h"
#include "geom/point.h"

namespace sgb::sql {

struct SelectStatement;

/// Unbound expression tree produced by the parser; the planner binds it
/// against operator schemas.
struct ParsedExpr {
  enum class Kind {
    kColumn,       ///< [qualifier.]name
    kLiteral,      ///< number / string / DATE 'x'
    kBinary,       ///< left op right
    kUnaryMinus,   ///< -operand (stored in left)
    kNot,          ///< NOT operand (stored in left)
    kFunction,     ///< name(args...) or name(*)
    kInList,       ///< left IN (e1, e2, ...)  with args = values
    kInSubquery,   ///< left IN (SELECT ...)
  };

  Kind kind = Kind::kLiteral;

  // kColumn
  std::string qualifier;
  std::string name;

  // kLiteral
  engine::Value literal;

  // kBinary / unary (unary uses only `left`)
  engine::BinaryOp op = engine::BinaryOp::kEq;
  std::unique_ptr<ParsedExpr> left;
  std::unique_ptr<ParsedExpr> right;

  // kFunction / kInList
  std::string function_name;
  std::vector<std::unique_ptr<ParsedExpr>> args;
  bool star_arg = false;      ///< count(*)
  bool distinct_arg = false;  ///< count(DISTINCT x)

  // kInSubquery
  std::unique_ptr<SelectStatement> subquery;

  /// Canonical text form; the planner uses it to match select-list
  /// expressions against GROUP BY expressions.
  std::string ToText() const;
};

using ParsedExprPtr = std::unique_ptr<ParsedExpr>;

/// The similarity specification attached to a GROUP BY clause.
struct SimilarityClause {
  enum class Kind {
    kNone,          ///< plain (equality) GROUP BY
    kAll,           ///< DISTANCE-TO-ALL ... WITHIN ε ON-OVERLAP ...
    kAny,           ///< DISTANCE-TO-ANY ... WITHIN ε
    kUnsupervised,  ///< MAXIMUM_ELEMENT_SEPARATION s [MAXIMUM_GROUP_DIAMETER]
    kAround,        ///< AROUND (c1, ...) [limits]
    kDelimited,     ///< DELIMITED BY (d1, ...)
  };

  Kind kind = Kind::kNone;

  // kAll / kAny
  geom::Metric metric = geom::Metric::kL2;
  double epsilon = 0.0;
  core::OverlapClause on_overlap = core::OverlapClause::kJoinAny;
  /// PARALLEL <n> (0 = auto); unset means the session default applies.
  std::optional<int> dop;

  // 1-D variants
  std::optional<double> max_separation;
  std::optional<double> max_diameter;
  std::vector<double> centers;
  std::vector<double> delimiters;
};

/// The event-time window of a continuous query (docs/STREAMING.md):
///   WINDOW TUMBLING <size> ON <col>
///   WINDOW SLIDING <size> ADVANCE <adv> ON <col>
/// Sizes are in the units of the (numeric) time column. A tumbling window
/// is a sliding window whose advance equals its size.
struct WindowClause {
  enum class Kind {
    kTumbling,
    kSliding,
  };

  Kind kind = Kind::kTumbling;
  double size = 0.0;
  double advance = 0.0;  ///< tumbling: set equal to size by the parser
  std::string time_column;
};

struct SelectItem {
  ParsedExprPtr expr;
  std::string alias;  // empty when none given
};

/// FROM item: a base table or a parenthesized subquery, with an optional
/// alias.
struct TableRef {
  std::string table_name;  // empty for subqueries
  std::unique_ptr<SelectStatement> subquery;
  std::string alias;
};

struct OrderItem {
  ParsedExprPtr expr;
  bool ascending = true;
};

struct SelectStatement {
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ParsedExprPtr where;
  std::vector<ParsedExprPtr> group_by;
  SimilarityClause similarity;
  ParsedExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<size_t> limit;
  /// Only valid inside CREATE CONTINUOUS QUERY; the batch planner rejects
  /// windowed SELECTs.
  std::optional<WindowClause> window;
};

/// How a statement's plan should be surfaced.
enum class ExplainMode {
  kNone,     ///< run the query, return its rows
  kPlan,     ///< EXPLAIN: render the physical plan without executing
  kAnalyze,  ///< EXPLAIN ANALYZE: execute, render the plan with counters
};

/// SET <knob> = <n | ident> — session-level governance knobs:
///   SET timeout = <ms>            (0 disables the deadline)
///   SET memory_budget = <bytes>   (0 removes the budget)
///   SET parallel = <dop>          (session default DOP; 0 = auto)
///   SET spill = <0|1>             (out-of-core fallback for budget breaches)
///   SET admission = queue|shed|off  (admission control mode)
///   SET admission_budget = <bytes>  (admission headroom; 0 = engine limit)
///   SET trace = <0|1>             (capture spans into the session TraceLog)
///   SET slow_query_micros = <us>  (slow-query threshold; 0 disables)
///   SET sgb_tier = auto|all_pairs|bounds|indexed  (SGB tier; auto = cost model)
///   SET agg_strategy = auto|hash|sort  (plain GROUP BY strategy)
struct SetStatement {
  std::string name;  ///< knob name, lower-cased by the parser
  int64_t value = 0;
  /// Identifier-valued settings (SET admission = queue); empty for
  /// integer-valued ones. Lower-cased by the parser.
  std::string text_value;
};

/// CREATE TABLE [IF NOT EXISTS] name (col TYPE, ...) — creates an empty
/// append-only table. Types: INT/INTEGER/BIGINT, DOUBLE/FLOAT/REAL,
/// TEXT/STRING/VARCHAR.
struct CreateTableStatement {
  std::string table;
  bool if_not_exists = false;
  std::vector<engine::Column> columns;
};

/// INSERT INTO name VALUES (lit, ...), (lit, ...) — literal rows only
/// (NULL, optionally signed numbers, strings). One statement appends
/// atomically: concurrent snapshot scans see all of its rows or none.
struct InsertStatement {
  std::string table;
  std::vector<engine::Row> rows;
};

/// DROP TABLE [IF EXISTS] name.
struct DropTableStatement {
  std::string table;
  bool if_exists = false;
};

/// ANALYZE [name] — full-scans the named table (or, with no name, every
/// stored and append-only table) and stores fresh statistics in the
/// catalog: row count, per-column min/max/NDV/null counts, and a 2-D grid
/// density histogram over the first two numeric columns. Bumps the catalog
/// version so cached plans re-plan against the new statistics.
struct AnalyzeStatement {
  std::string table;  ///< empty = all stored + append-only tables
};

/// CREATE CONTINUOUS QUERY [IF NOT EXISTS] name AS SELECT ... WINDOW ... —
/// registers a standing similarity group-by over the event-time windows of
/// an append-only table (docs/STREAMING.md). The inner SELECT must carry a
/// SIMILARITY GROUP BY (DISTANCE-TO-ALL/ANY) and a WINDOW clause.
struct CreateContinuousStatement {
  std::string name;
  bool if_not_exists = false;
  std::unique_ptr<SelectStatement> select;
};

/// DROP CONTINUOUS QUERY [IF EXISTS] name.
struct DropContinuousStatement {
  std::string name;
  bool if_exists = false;
};

/// CHECKPOINT — flushes every dirty page, fsyncs the segments, atomically
/// publishes a new storage manifest, and truncates the WAL (docs/STORAGE.md
/// "Checkpoint protocol"). Only valid on a disk-backed database.
struct CheckpointStatement {};

/// A full parsed statement: an optional EXPLAIN [ANALYZE] or PROFILE
/// prefix wrapping one SELECT; or a SET / CREATE TABLE / INSERT /
/// DROP TABLE statement (exactly one of the optionals engaged, `select`
/// null). PROFILE executes the statement and returns its span tree as rows
/// (one per span) instead of the statement's own result.
struct ParsedStatement {
  ExplainMode explain = ExplainMode::kNone;
  bool profile = false;
  std::unique_ptr<SelectStatement> select;
  std::optional<SetStatement> set;
  std::optional<CreateTableStatement> create;
  std::optional<InsertStatement> insert;
  std::optional<DropTableStatement> drop;
  std::optional<AnalyzeStatement> analyze;
  std::optional<CreateContinuousStatement> create_continuous;
  std::optional<DropContinuousStatement> drop_continuous;
  std::optional<CheckpointStatement> checkpoint;
};

}  // namespace sgb::sql

#endif  // SGB_SQL_AST_H_
