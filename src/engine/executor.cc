#include "engine/executor.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <ctime>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "engine/system_tables.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "stats/table_stats.h"

namespace sgb::engine {

namespace {

/// Process CPU time in microseconds (0 where the clock is unavailable).
/// Per-query CPU is the delta across the statement; on a busy engine it
/// includes concurrent queries' work — it is a load signal, not an exact
/// attribution.
int64_t ProcessCpuMicros() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return int64_t{ts.tv_sec} * 1'000'000 + ts.tv_nsec / 1000;
  }
#endif
  return 0;
}

int64_t ElapsedMicros(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The query log's status column for a failed statement.
std::string StatusToLogString(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "ok";
    case Status::Code::kCancelled:
      return "cancelled";
    case Status::Code::kDeadlineExceeded:
      return "timeout";
    case Status::Code::kResourceExhausted:
      return "mem_exceeded";
    default:
      return "error";
  }
}

/// The query log's tier/dop columns, derived from the statement's
/// similarity clause before planning.
void FillSgbInfo(const sql::SelectStatement& stmt,
                 const sql::PlannerOptions& options, std::string* tier,
                 int64_t* dop) {
  using Kind = sql::SimilarityClause::Kind;
  switch (stmt.similarity.kind) {
    case Kind::kNone:
      *tier = "none";
      *dop = 0;
      return;
    case Kind::kAll:
      *tier = "sgb-all";
      break;
    case Kind::kAny:
      *tier = "sgb-any";
      break;
    default:
      *tier = "sgb-1d";
      break;
  }
  *dop = stmt.similarity.dop.value_or(options.default_sgb_dop.value_or(1));
}

/// The parsed non-SELECT statement kinds Query() executes directly.
struct NonSelect {
  std::optional<sql::SetStatement> set;
  std::optional<sql::CreateTableStatement> create;
  std::optional<sql::InsertStatement> insert;
  std::optional<sql::DropTableStatement> drop;
  std::optional<sql::AnalyzeStatement> analyze;
  std::optional<sql::CreateContinuousStatement> create_continuous;
  std::optional<sql::DropContinuousStatement> drop_continuous;
  std::optional<sql::CheckpointStatement> checkpoint;

  bool engaged() const {
    return set.has_value() || create.has_value() || insert.has_value() ||
           drop.has_value() || analyze.has_value() ||
           create_continuous.has_value() || drop_continuous.has_value() ||
           checkpoint.has_value();
  }
};

/// Catalog keys are lower-cased; the storage engine stores names verbatim,
/// so the executor lowers them once here to keep the two views aligned.
std::string LowerName(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool ExprHasSubquery(const sql::ParsedExpr& e) {
  if (e.kind == sql::ParsedExpr::Kind::kInSubquery) return true;
  if (e.left != nullptr && ExprHasSubquery(*e.left)) return true;
  if (e.right != nullptr && ExprHasSubquery(*e.right)) return true;
  for (const auto& arg : e.args) {
    if (arg != nullptr && ExprHasSubquery(*arg)) return true;
  }
  return false;
}

/// Whether a plan for `stmt` stays valid across executions at a fixed
/// catalog version. IN (SELECT ...) subqueries are folded at plan time, so
/// they would freeze results, and virtual (system.*) sources are bound to
/// this Catalog object when planned; those statements are replanned every
/// run. Every other scan pins a fresh snapshot at each Open.
bool SelectIsCacheSafe(const sql::SelectStatement& stmt,
                       const Catalog& catalog) {
  for (const sql::TableRef& ref : stmt.from) {
    if (ref.subquery != nullptr) {
      if (!SelectIsCacheSafe(*ref.subquery, catalog)) return false;
      continue;
    }
    auto source = catalog.Find(ref.table_name);
    if (source.ok() && source.value()->kind() == TableKind::kSystem) {
      return false;
    }
  }
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr && ExprHasSubquery(*item.expr)) return false;
  }
  if (stmt.where != nullptr && ExprHasSubquery(*stmt.where)) return false;
  for (const auto& g : stmt.group_by) {
    if (g != nullptr && ExprHasSubquery(*g)) return false;
  }
  if (stmt.having != nullptr && ExprHasSubquery(*stmt.having)) return false;
  for (const auto& o : stmt.order_by) {
    if (o.expr != nullptr && ExprHasSubquery(*o.expr)) return false;
  }
  return true;
}

/// Plans the statement under trace spans shared by every entry point. A
/// non-SELECT statement (SET/CREATE/INSERT/DROP) is surfaced through
/// `non_select` with a null OperatorPtr (entry points without a sink
/// reject it). `plan_micros`/`tier`/`dop` (null-safe) receive the query
/// log's planning cost and SGB columns; `profile` whether the statement
/// carried a PROFILE prefix; `cache_safe` whether the resulting plan may
/// be reused at a fixed catalog version.
Result<OperatorPtr> PlanStatement(const Catalog& catalog,
                                  const std::string& sql,
                                  const sql::PlannerOptions& options,
                                  sql::ExplainMode* mode, bool* profile,
                                  NonSelect* non_select,
                                  obs::QueryTrace* trace,
                                  int64_t* plan_micros, std::string* tier,
                                  int64_t* dop, bool* cache_safe = nullptr,
                                  sql::PlanInfo* plan_info = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  Result<sql::ParsedStatement> stmt = [&] {
    obs::ScopedSpan span(trace, "parse");
    return sql::ParseStatement(sql);
  }();
  if (!stmt.ok()) {
    if (plan_micros != nullptr) *plan_micros = ElapsedMicros(t0);
    return stmt.status();
  }
  if (mode != nullptr) *mode = stmt.value().explain;
  if (profile != nullptr) *profile = stmt.value().profile;
  if (stmt.value().select == nullptr) {
    if (non_select == nullptr) {
      return Status::InvalidArgument(
          "SET/CREATE/INSERT/DROP statements are only valid through "
          "Database::Query");
    }
    non_select->set = std::move(stmt.value().set);
    non_select->create = std::move(stmt.value().create);
    non_select->insert = std::move(stmt.value().insert);
    non_select->drop = std::move(stmt.value().drop);
    non_select->analyze = std::move(stmt.value().analyze);
    non_select->create_continuous = std::move(stmt.value().create_continuous);
    non_select->drop_continuous = std::move(stmt.value().drop_continuous);
    non_select->checkpoint = stmt.value().checkpoint;
    if (plan_micros != nullptr) *plan_micros = ElapsedMicros(t0);
    return OperatorPtr{};
  }
  if (stmt.value().select->window.has_value()) {
    return Status::InvalidArgument(
        "WINDOW is only valid inside CREATE CONTINUOUS QUERY ... AS SELECT");
  }
  if (tier != nullptr && dop != nullptr) {
    FillSgbInfo(*stmt.value().select, options, tier, dop);
  }
  if (cache_safe != nullptr) {
    *cache_safe = SelectIsCacheSafe(*stmt.value().select, catalog);
  }
  auto plan = [&] {
    obs::ScopedSpan span(trace, "plan");
    return sql::PlanQuery(catalog, *stmt.value().select, options, plan_info);
  }();
  if (plan_micros != nullptr) *plan_micros = ElapsedMicros(t0);
  // The cost model may override the pre-planning dop (auto-parallel SGB).
  if (plan.ok() && plan_info != nullptr && !plan_info->tier.empty() &&
      dop != nullptr) {
    *dop = plan_info->chosen_dop;
  }
  return plan;
}

/// Wraps a rendered plan string as a one-column `plan` table, one row per
/// line, so EXPLAIN flows through the normal Query() result path.
Result<Table> PlanTextTable(const std::string& text) {
  Schema schema;
  schema.AddColumn(Column{"plan", DataType::kString, ""});
  Table table(schema);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    SGB_RETURN_IF_ERROR(
        table.Append(Row{Value::Str(text.substr(start, end - start))}));
    start = end + 1;
  }
  return table;
}

/// One-column acknowledgement table for SET/CREATE/INSERT/DROP.
Result<Table> AckTable(const std::string& column, const std::string& text) {
  Schema schema;
  schema.AddColumn(Column{column, DataType::kString, ""});
  Table table(schema);
  SGB_RETURN_IF_ERROR(table.Append(Row{Value::Str(text)}));
  return table;
}

/// Drains the plan, recording engine-level metrics and the execute span.
Result<Table> Execute(Operator& root, obs::QueryTrace* trace) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("engine.queries").Add(1);
  obs::ScopedSpan span(trace, "execute");
  ScopedTimer<obs::Histogram> timer(&registry.GetHistogram("engine.query_us"));
  Result<Table> result = Materialize(root);
  if (result.ok()) {
    const double rows = static_cast<double>(result.value().NumRows());
    span.AddAttribute("rows", rows);
    registry.GetCounter("engine.rows_returned")
        .Add(result.value().NumRows());
  } else {
    registry.GetCounter("engine.query_errors").Add(1);
  }
  return result;
}

/// EXPLAIN ANALYZE footer: peak memory, the statement's phase timings
/// (admission queue / planning / execution), plus, when the query spilled,
/// the spill totals (docs/ROBUSTNESS.md "Spill-to-disk").
std::string GovernanceFooter(size_t peak_bytes, uint64_t spill_events,
                             uint64_t spill_bytes, int64_t queue_micros,
                             int64_t plan_micros, int64_t exec_micros) {
  std::string footer = "peak_mem=" + FormatMemoryBytes(peak_bytes) + "\n";
  footer += "queue_micros=" + std::to_string(queue_micros) + "\n";
  footer += "plan_micros=" + std::to_string(plan_micros) + "\n";
  footer += "exec_micros=" + std::to_string(exec_micros) + "\n";
  if (spill_events > 0) {
    footer += "spilled=" + std::to_string(spill_events) + "\n";
    footer += "spill_bytes=" + std::to_string(spill_bytes) + "\n";
  }
  return footer;
}

/// Preorder walk collecting one system.operator_stats row per plan node.
void CollectOperatorStats(const Operator& op, uint64_t query_id,
                          int64_t depth, int64_t* index,
                          std::vector<obs::OperatorStatsEntry>* out) {
  obs::OperatorStatsEntry e;
  e.query_id = query_id;
  e.op_index = (*index)++;
  e.depth = depth;
  e.op = op.name();
  const OperatorStats& s = op.stats();
  e.rows = static_cast<int64_t>(s.rows_produced);
  e.batches = static_cast<int64_t>(s.batches);
  e.open_micros = static_cast<int64_t>(s.open_ns / 1000);
  e.next_micros = static_cast<int64_t>(s.next_ns / 1000);
  e.peak_memory_bytes = static_cast<int64_t>(s.peak_memory_bytes);
  out->push_back(std::move(e));
  for (const Operator* child : op.children()) {
    CollectOperatorStats(*child, query_id, depth + 1, index, out);
  }
}

/// Rows read from storage: the sum of every TableScan's output.
int64_t SumScanRows(const Operator& op) {
  int64_t total =
      op.name() == "TableScan"
          ? static_cast<int64_t>(op.stats().rows_produced)
          : 0;
  for (const Operator* child : op.children()) total += SumScanRows(*child);
  return total;
}

Schema ProfileSchema() {
  Schema s;
  s.AddColumn(Column{"id", DataType::kInt64, ""});
  s.AddColumn(Column{"parent_id", DataType::kInt64, ""});
  s.AddColumn(Column{"thread", DataType::kInt64, ""});
  s.AddColumn(Column{"operator", DataType::kString, ""});
  s.AddColumn(Column{"phase", DataType::kString, ""});
  s.AddColumn(Column{"start_us", DataType::kInt64, ""});
  s.AddColumn(Column{"end_us", DataType::kInt64, ""});
  s.AddColumn(Column{"wall_us", DataType::kInt64, ""});
  s.AddColumn(Column{"self_us", DataType::kInt64, ""});
  s.AddColumn(Column{"mem_bytes", DataType::kDouble, ""});
  s.AddColumn(Column{"kernels", DataType::kDouble, ""});
  return s;
}

/// One PROFILE row per span, preorder. `phase` is the top-level ancestor
/// (parse/plan/execute; "query" for the root itself). `self_us` is wall
/// time minus the direct children's wall time, clamped at 0 — for spans
/// whose children ran in parallel the children can overlap, so self time
/// is a lower bound there.
Status AppendProfileRows(const obs::TraceSpan& span, const std::string& phase,
                         Table* table) {
  uint64_t child_ns = 0;
  for (const obs::TraceSpan& child : span.children) {
    child_ns += child.duration_ns;
  }
  const uint64_t self_ns =
      span.duration_ns > child_ns ? span.duration_ns - child_ns : 0;
  const auto attr = [&span](const char* key) {
    const auto it = span.attributes.find(key);
    return it == span.attributes.end() ? Value::Null()
                                       : Value::Double(it->second);
  };
  // start/end truncate the span's ns endpoints (truncation is monotone, so
  // child intervals stay inside their parent's); wall is their difference,
  // keeping end = start + wall exact in the output.
  const int64_t start_us = static_cast<int64_t>(span.start_ns / 1000);
  const int64_t end_us =
      static_cast<int64_t>((span.start_ns + span.duration_ns) / 1000);
  SGB_RETURN_IF_ERROR(table->Append(
      Row{Value::Int(static_cast<int64_t>(span.id)),
          Value::Int(static_cast<int64_t>(span.parent_id)),
          Value::Int(static_cast<int64_t>(span.tid)), Value::Str(span.name),
          Value::Str(phase), Value::Int(start_us), Value::Int(end_us),
          Value::Int(end_us - start_us),
          Value::Int(static_cast<int64_t>(self_ns / 1000)),
          attr("mem_bytes"), attr("kernels")}));
  for (const obs::TraceSpan& child : span.children) {
    SGB_RETURN_IF_ERROR(AppendProfileRows(
        child, span.id == 0 ? child.name : phase, table));
  }
  return Status::OK();
}

Result<Table> ProfileTable(const obs::TraceSpan& root) {
  Table table(ProfileSchema());
  SGB_RETURN_IF_ERROR(AppendProfileRows(root, "query", &table));
  return table;
}

/// Whether the statement text can participate in the plan cache at all
/// (only bare SELECTs are cached; the cheap prefix test avoids counting
/// SET/DDL/EXPLAIN against the hit/miss ratio).
bool LooksLikeSelect(const std::string& normalized) {
  return normalized.rfind("select", 0) == 0;
}

}  // namespace

Database::Database() {
  RegisterSystemTables(&catalog_, query_log_, sessions_);
  RegisterContinuousSystemTable(&catalog_, continuous_);
}

Result<Database> Database::Open(const std::string& directory,
                                const storage::StorageOptions& options) {
  auto engine = storage::StorageEngine::Open(directory, options);
  if (!engine.ok()) return engine.status();
  Database db;
  db.storage_ = std::move(engine).value();
  // Mirror every recovered table into the catalog so the planner, system
  // tables, and continuous queries see them like any other table.
  for (const std::string& name : db.storage_->TableNames()) {
    SGB_RETURN_IF_ERROR(
        db.catalog_.RegisterSource(name, db.storage_->Find(name)));
  }
  RegisterStorageSystemTables(&db.catalog_, db.storage_);
  return db;
}

Result<OperatorPtr> Database::Prepare(const std::string& sql) const {
  return PlanStatement(catalog_, sql, default_session_->PlannerOptionsSnapshot(),
                       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
                       nullptr);
}

Result<Table> Database::Query(Session& session, const std::string& sql,
                              obs::QueryTrace* caller_trace) const {
  // Every execution records into a trace (the caller's, or a local one):
  // the query log, PROFILE, and SET trace = 1 all read from it. Tracing is
  // side-effect-free with respect to results.
  obs::QueryTrace local_trace;
  obs::QueryTrace* trace =
      caller_trace != nullptr ? caller_trace : &local_trace;

  StatementInfo info;
  info.text = sql;
  info.wall_start = std::chrono::steady_clock::now();
  info.cpu_start_micros = ProcessCpuMicros();

  // One consistent governance/planner view per statement: a concurrent SET
  // on this session applies from the next statement on.
  const SessionGovernance gov = session.GovernanceSnapshot();
  const sql::PlannerOptions options = session.PlannerOptionsSnapshot();

  // Plan-cache fast path: check a matching plan *out* (no two threads ever
  // drive one operator tree), run it, check it back in.
  const std::string cache_key = Session::NormalizeSql(sql);
  const bool cacheable_text = LooksLikeSelect(cache_key);
  const uint64_t catalog_version = catalog_.version();
  if (cacheable_text) {
    if (auto cached = session.TakeCachedPlan(cache_key, catalog_version)) {
      info.tier = cached->tier;
      info.dop = cached->dop;
      info.est_rows = cached->est_rows;
      info.est_bytes = cached->est_bytes;
      info.strategy = cached->strategy;
      RunStats stats;
      Result<Table> result =
          RunPlan(session, gov, *cached->plan, trace, &stats, info);
      // A plan that spilled holds its run files in operator state until it
      // is destroyed — drop it instead of pinning disk in the cache.
      if (stats.spill_events == 0) {
        session.StoreCachedPlan(cache_key, std::move(*cached));
      }
      return result;
    }
  }

  sql::ExplainMode mode = sql::ExplainMode::kNone;
  bool profile = false;
  NonSelect non_select;
  bool cache_safe = false;
  sql::PlanInfo plan_info;
  auto plan = PlanStatement(catalog_, sql, options, &mode, &profile,
                            &non_select, trace, &info.plan_micros, &info.tier,
                            &info.dop, &cache_safe, &plan_info);
  if (!plan.ok()) {
    LogFailedStatement(session, info);
    return plan.status();
  }
  if (non_select.set.has_value()) return ApplySet(session, *non_select.set);
  if (non_select.create.has_value()) {
    return ExecuteCreate(session, *non_select.create, &info);
  }
  if (non_select.insert.has_value()) {
    return ExecuteInsert(session, *non_select.insert, &info);
  }
  if (non_select.drop.has_value()) {
    return ExecuteDrop(session, *non_select.drop, &info);
  }
  if (non_select.analyze.has_value()) {
    return ExecuteAnalyze(session, gov, *non_select.analyze, trace, &info);
  }
  if (non_select.create_continuous.has_value()) {
    return ExecuteCreateContinuous(
        session, std::move(*non_select.create_continuous), &info);
  }
  if (non_select.drop_continuous.has_value()) {
    return ExecuteDropContinuous(session, *non_select.drop_continuous, &info);
  }
  if (non_select.checkpoint.has_value()) {
    return ExecuteCheckpoint(session, &info);
  }
  info.est_rows = static_cast<int64_t>(plan_info.est_rows);
  info.est_bytes = static_cast<size_t>(plan_info.est_bytes);
  info.strategy =
      !plan_info.tier.empty() ? plan_info.tier : plan_info.strategy;

  if (mode == sql::ExplainMode::kPlan) {
    return PlanTextTable(ExplainPlan(*plan.value()));
  }

  RunStats stats;
  Result<Table> result = RunPlan(session, gov, *plan.value(), trace, &stats,
                                 info);

  if (mode == sql::ExplainMode::kAnalyze) {
    if (!result.ok()) return result.status();
    return PlanTextTable(
        ExplainAnalyzePlan(*plan.value()) +
        GovernanceFooter(stats.peak_bytes, stats.spill_events,
                         stats.spill_bytes, stats.queue_micros,
                         stats.plan_micros, stats.exec_micros));
  }
  if (profile) {
    if (!result.ok()) return result.status();
    return ProfileTable(trace->root());
  }
  if (result.ok() && cacheable_text && cache_safe &&
      stats.spill_events == 0) {
    CachedPlan entry;
    entry.plan = std::move(plan).value();
    entry.catalog_version = catalog_version;
    entry.tier = info.tier;
    entry.dop = info.dop;
    entry.est_rows = info.est_rows;
    entry.est_bytes = info.est_bytes;
    entry.strategy = info.strategy;
    session.StoreCachedPlan(cache_key, std::move(entry));
  }
  return result;
}

Result<std::string> Database::Explain(const std::string& sql) const {
  auto plan = PlanStatement(catalog_, sql,
                            default_session_->PlannerOptionsSnapshot(),
                            nullptr, nullptr, nullptr, nullptr, nullptr,
                            nullptr, nullptr);
  if (!plan.ok()) return plan.status();
  return ExplainPlan(*plan.value());
}

Result<std::string> Database::ExplainAnalyze(
    const std::string& sql, obs::QueryTrace* caller_trace) const {
  obs::QueryTrace local_trace;
  obs::QueryTrace* trace =
      caller_trace != nullptr ? caller_trace : &local_trace;

  Session& session = *default_session_;
  StatementInfo info;
  info.text = sql;
  info.wall_start = std::chrono::steady_clock::now();
  info.cpu_start_micros = ProcessCpuMicros();

  const SessionGovernance gov = session.GovernanceSnapshot();
  auto plan = PlanStatement(catalog_, sql, session.PlannerOptionsSnapshot(),
                            nullptr, nullptr, nullptr, trace,
                            &info.plan_micros, &info.tier, &info.dop);
  if (!plan.ok()) {
    LogFailedStatement(session, info);
    return plan.status();
  }
  RunStats stats;
  auto result = RunPlan(session, gov, *plan.value(), trace, &stats, info);
  if (!result.ok()) return result.status();
  return ExplainAnalyzePlan(*plan.value()) +
         GovernanceFooter(stats.peak_bytes, stats.spill_events,
                          stats.spill_bytes, stats.queue_micros,
                          stats.plan_micros, stats.exec_micros);
}

Status Database::PrepareStatement(Session& session, const std::string& name,
                                  const std::string& sql) const {
  sql::ExplainMode mode = sql::ExplainMode::kNone;
  bool profile = false;
  bool cache_safe = false;
  std::string tier = "none";
  int64_t dop = 0;
  const uint64_t catalog_version = catalog_.version();
  auto plan = PlanStatement(catalog_, sql,
                            session.PlannerOptionsSnapshot(), &mode, &profile,
                            nullptr, nullptr, nullptr, &tier, &dop,
                            &cache_safe);
  if (!plan.ok()) return plan.status();
  session.DefinePrepared(name, sql);
  const std::string cache_key = Session::NormalizeSql(sql);
  if (mode == sql::ExplainMode::kNone && !profile && cache_safe &&
      LooksLikeSelect(cache_key)) {
    CachedPlan entry;
    entry.plan = std::move(plan).value();
    entry.catalog_version = catalog_version;
    entry.tier = tier;
    entry.dop = dop;
    session.StoreCachedPlan(cache_key, std::move(entry));
  }
  return Status::OK();
}

Result<Table> Database::ExecutePrepared(Session& session,
                                        const std::string& name,
                                        obs::QueryTrace* trace) const {
  auto sql = session.LookupPrepared(name);
  if (!sql.ok()) return sql.status();
  return Query(session, sql.value(), trace);
}

void Database::Cancel() const {
  {
    std::lock_guard<std::mutex> lock(active_->mu);
    for (QueryContext* ctx : active_->contexts) ctx->Cancel();
  }
  continuous_->CancelActive();
}

Result<Table> Database::ApplySet(Session& session,
                                 const sql::SetStatement& set) const {
  if (!set.text_value.empty()) {
    // Identifier-valued settings.
    if (set.name == "admission") {
      if (set.text_value == "off") {
        session.set_admission_mode(AdmissionMode::kOff);
      } else if (set.text_value == "queue") {
        session.set_admission_mode(AdmissionMode::kQueue);
      } else if (set.text_value == "shed") {
        session.set_admission_mode(AdmissionMode::kShed);
      } else {
        return Status::InvalidArgument("SET admission: expected queue, "
                                       "shed, or off, got '" +
                                       set.text_value + "'");
      }
    } else if (set.name == "sgb_tier") {
      if (set.text_value == "auto") {
        session.set_sgb_tier(sql::TierPolicy::kAuto);
      } else if (set.text_value == "all_pairs") {
        session.set_sgb_tier(sql::TierPolicy::kAllPairs);
      } else if (set.text_value == "bounds") {
        session.set_sgb_tier(sql::TierPolicy::kBounds);
      } else if (set.text_value == "indexed") {
        session.set_sgb_tier(sql::TierPolicy::kIndexed);
      } else {
        return Status::InvalidArgument(
            "SET sgb_tier: expected auto, all_pairs, bounds, or indexed, "
            "got '" + set.text_value + "'");
      }
    } else if (set.name == "agg_strategy") {
      if (set.text_value == "auto") {
        session.set_agg_strategy(sql::AggStrategy::kAuto);
      } else if (set.text_value == "hash") {
        session.set_agg_strategy(sql::AggStrategy::kHash);
      } else if (set.text_value == "sort") {
        session.set_agg_strategy(sql::AggStrategy::kSort);
      } else {
        return Status::InvalidArgument(
            "SET agg_strategy: expected auto, hash, or sort, got '" +
            set.text_value + "'");
      }
    } else if (set.name == "eviction") {
      if (storage_ == nullptr) {
        return Status::InvalidArgument(
            "SET eviction requires a disk-backed database (Database::Open)");
      }
      auto kind = storage::ParseEvictionPolicy(set.text_value);
      if (!kind.ok()) return kind.status();
      SGB_RETURN_IF_ERROR(storage_->SetEvictionPolicy(kind.value()));
    } else {
      return Status::InvalidArgument(
          "SET " + set.name + ": expected an integer value, got '" +
          set.text_value + "'");
    }
    return AckTable("set", set.name + " = " + set.text_value);
  }
  if (set.value < 0) {
    return Status::InvalidArgument("SET " + set.name +
                                   ": value must be >= 0");
  }
  if (set.name == "timeout") {
    session.set_timeout_ms(set.value);
  } else if (set.name == "memory_budget") {
    session.set_memory_budget_bytes(static_cast<size_t>(set.value));
  } else if (set.name == "parallel") {
    session.set_default_sgb_dop(static_cast<int>(set.value));
  } else if (set.name == "spill") {
    session.set_spill_enabled(set.value != 0);
  } else if (set.name == "admission_budget") {
    session.set_admission_budget_bytes(static_cast<size_t>(set.value));
  } else if (set.name == "trace") {
    session.set_trace_enabled(set.value != 0);
  } else if (set.name == "slow_query_micros") {
    session.set_slow_query_micros(set.value);
  } else if (set.name == "buffer_pool_bytes") {
    if (storage_ == nullptr) {
      return Status::InvalidArgument(
          "SET buffer_pool_bytes requires a disk-backed database "
          "(Database::Open)");
    }
    SGB_RETURN_IF_ERROR(
        storage_->SetBufferPoolBytes(static_cast<size_t>(set.value)));
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + set.name +
        "' (expected timeout, memory_budget, parallel, spill, admission, "
        "admission_budget, trace, slow_query_micros, sgb_tier, "
        "agg_strategy, buffer_pool_bytes, or eviction)");
  }
  return AckTable("set", set.name + " = " + std::to_string(set.value));
}

Result<Table> Database::ExecuteCreate(Session& session,
                                      const sql::CreateTableStatement& create,
                                      StatementInfo* info) const {
  Schema schema;
  for (const Column& col : create.columns) schema.AddColumn(col);
  Status status;
  if (storage_ != nullptr) {
    // Disk-backed database: the table lives in the storage engine (WAL +
    // pages) and is mirrored into the catalog for the planner.
    const std::string name = LowerName(create.table);
    if (catalog_.Find(name).ok() && storage_->Find(name) == nullptr) {
      status = create.if_not_exists
                   ? Status::OK()
                   : Status::InvalidArgument("table '" + create.table +
                                             "' already exists");
    } else {
      bool created = false;
      status = storage_->CreateTable(name, schema, create.if_not_exists,
                                     &created);
      if (status.ok() && created) {
        status = catalog_.RegisterSource(name, storage_->Find(name));
      }
    }
  } else {
    status = catalog_.CreateAppendable(create.table, std::move(schema),
                                       create.if_not_exists);
  }
  LogSimpleStatement(session, *info, status, 0);
  if (!status.ok()) return status;
  return AckTable("create", "CREATE TABLE " + create.table);
}

Result<Table> Database::ExecuteInsert(Session& session,
                                      const sql::InsertStatement& insert,
                                      StatementInfo* info) const {
  if (storage_ != nullptr && storage_->Find(LowerName(insert.table))) {
    const int64_t n = static_cast<int64_t>(insert.rows.size());
    Status status = storage_->Insert(LowerName(insert.table), insert.rows);
    if (status.ok()) {
      catalog_.AddStatsRowDelta(insert.table, insert.rows.size());
      status = continuous_->OnInsert(catalog_, insert.table, insert.rows);
    }
    LogSimpleStatement(session, *info, status, status.ok() ? n : 0);
    if (!status.ok()) return status;
    return AckTable("insert", "INSERT " + std::to_string(n));
  }
  AppendTablePtr table = catalog_.FindAppendable(insert.table);
  if (table == nullptr) {
    const Status status =
        catalog_.Find(insert.table).ok()
            ? Status::InvalidArgument(
                  "table '" + insert.table +
                  "' does not accept INSERT (only CREATE TABLE tables do)")
            : Status::NotFound("no table named '" + insert.table + "'");
    LogSimpleStatement(session, *info, status, 0);
    return status;
  }
  const int64_t n = static_cast<int64_t>(insert.rows.size());
  Status status = table->Append(insert.rows);
  if (status.ok()) {
    // Keep the optimizer's row counts fresh: growth beyond 10% of the last
    // ANALYZE bumps the catalog version, invalidating cached plans whose
    // cost-model choices are now stale.
    catalog_.AddStatsRowDelta(insert.table, insert.rows.size());
    // Continuous-query maintenance (docs/STREAMING.md): a failure here —
    // budget breach, cancellation, a divergent or fault-injected window
    // close — fails the INSERT, but the rows above stay appended; the next
    // INSERT retries the close.
    status = continuous_->OnInsert(catalog_, insert.table, insert.rows);
  }
  LogSimpleStatement(session, *info, status, status.ok() ? n : 0);
  if (!status.ok()) return status;
  return AckTable("insert", "INSERT " + std::to_string(n));
}

Result<Table> Database::ExecuteDrop(Session& session,
                                    const sql::DropTableStatement& drop,
                                    StatementInfo* info) const {
  Status status;
  if (storage_ != nullptr && storage_->Find(LowerName(drop.table))) {
    // WAL the drop first; only a durably dropped table leaves the catalog.
    status = storage_->DropTable(LowerName(drop.table), drop.if_exists);
    if (status.ok()) status = catalog_.Drop(drop.table, drop.if_exists);
  } else {
    status = catalog_.Drop(drop.table, drop.if_exists);
  }
  LogSimpleStatement(session, *info, status, 0);
  if (!status.ok()) return status;
  return AckTable("drop", "DROP TABLE " + drop.table);
}

Result<Table> Database::ExecuteAnalyze(Session& session,
                                       const SessionGovernance& gov,
                                       const sql::AnalyzeStatement& analyze,
                                       obs::QueryTrace* trace,
                                       StatementInfo* info) const {
  std::vector<std::string> names = analyze.table.empty()
                                       ? catalog_.TableNames()
                                       : std::vector{analyze.table};
  // Streams each table under the session's governance, as a SELECT would:
  // the budget bounds the rows in flight, and Cancel/timeouts reach it.
  QueryContext ctx(gov.memory_budget_bytes);
  ActivateContext(session, gov, trace, &ctx);
  size_t analyzed = 0;
  int64_t rows = 0;
  Status status;
  for (const std::string& name : names) {
    auto source = catalog_.Find(name);
    if (!source.ok()) {
      status = source.status();
      break;
    }
    if (source.value()->kind() == TableKind::kSystem) {
      if (analyze.table.empty()) continue;  // bare ANALYZE skips them
      status = Status::InvalidArgument("ANALYZE: system table '" + name +
                                       "' has no statistics");
      break;
    }
    try {
      auto stats = std::make_shared<stats::TableStats>(
          stats::ComputeTableStats(name, *source.value(), &ctx));
      rows += static_cast<int64_t>(stats->row_count);
      catalog_.SetStats(name, std::move(stats));
      ++analyzed;
    } catch (const QueryAbort& abort) {
      status = abort.status();
      break;
    }
  }
  DeactivateContext(session, &ctx, 0);
  LogSimpleStatement(session, *info, status, status.ok() ? rows : 0,
                     ctx.memory().peak_bytes());
  if (!status.ok()) return status;
  return AckTable("analyze",
                  "ANALYZE " + std::to_string(analyzed) + " table" +
                      (analyzed == 1 ? "" : "s") + ", " +
                      std::to_string(rows) + " rows");
}

Result<Table> Database::ExecuteCreateContinuous(
    Session& session, sql::CreateContinuousStatement stmt,
    StatementInfo* info) const {
  const std::string name = stmt.name;
  const Status status =
      continuous_->Create(catalog_, std::move(stmt), info->text);
  LogSimpleStatement(session, *info, status, 0);
  if (!status.ok()) return status;
  return AckTable("create", "CREATE CONTINUOUS QUERY " + name);
}

Result<Table> Database::ExecuteDropContinuous(
    Session& session, const sql::DropContinuousStatement& drop,
    StatementInfo* info) const {
  const Status status = continuous_->Drop(drop.name, drop.if_exists);
  LogSimpleStatement(session, *info, status, 0);
  if (!status.ok()) return status;
  return AckTable("drop", "DROP CONTINUOUS QUERY " + drop.name);
}

Result<Table> Database::ExecuteCheckpoint(Session& session,
                                          StatementInfo* info) const {
  const Status status =
      storage_ == nullptr
          ? Status::InvalidArgument(
                "CHECKPOINT requires a disk-backed database "
                "(Database::Open)")
          : storage_->Checkpoint();
  LogSimpleStatement(session, *info, status, 0);
  if (!status.ok()) return status;
  return AckTable("checkpoint", "CHECKPOINT");
}

void Database::ActivateContext(Session& session, const SessionGovernance& gov,
                               obs::QueryTrace* trace,
                               QueryContext* ctx) const {
  if (gov.timeout_ms > 0) ctx->SetTimeout(gov.timeout_ms);
  if (gov.spill_enabled) {
    SpillConfig spill;
    spill.enabled = true;
    spill.directory = gov.spill_directory;
    ctx->set_spill(spill);
  }
  ctx->set_trace(trace);
  {
    std::lock_guard<std::mutex> lock(active_->mu);
    active_->contexts.push_back(ctx);
  }
  session.RegisterContext(ctx);
}

void Database::DeactivateContext(Session& session, QueryContext* ctx,
                                 size_t admitted_bytes) const {
  session.UnregisterContext(ctx);
  {
    std::lock_guard<std::mutex> lock(active_->mu);
    auto& contexts = active_->contexts;
    contexts.erase(std::remove(contexts.begin(), contexts.end(), ctx),
                   contexts.end());
    active_->admitted_bytes -= std::min(active_->admitted_bytes,
                                        admitted_bytes);
  }
  if (admitted_bytes > 0) active_->cv.notify_all();
}

Status Database::AdmitQuery(const SessionGovernance& gov, size_t estimate,
                            bool* admitted, std::string* outcome,
                            int64_t* queue_micros,
                            obs::QueryTrace* trace) const {
  *admitted = false;
  *outcome = "admitted";
  *queue_micros = 0;
  if (gov.admission == AdmissionMode::kOff) return Status::OK();
  const size_t limit = gov.admission_budget_bytes != 0
                           ? gov.admission_budget_bytes
                           : MemoryTracker::EngineGlobal().limit_bytes();
  if (limit == 0) return Status::OK();  // No headroom defined: admit.

  auto& registry = obs::MetricsRegistry::Global();
  std::unique_lock<std::mutex> lock(active_->mu);
  if (estimate > limit) {
    // Larger than the whole headroom: queueing can never help.
    registry.GetCounter("query.shed").Add(1);
    *outcome = "shed";
    return Status::ResourceExhausted(
        "admission: estimated footprint " + std::to_string(estimate) +
        "B exceeds the engine headroom " + std::to_string(limit) + "B");
  }
  if (active_->admitted_bytes + estimate <= limit) {
    active_->admitted_bytes += estimate;
    *admitted = true;
    return Status::OK();
  }
  if (gov.admission == AdmissionMode::kShed) {
    registry.GetCounter("query.shed").Add(1);
    *outcome = "shed";
    return Status::ResourceExhausted(
        "admission: engine headroom exhausted (" +
        std::to_string(active_->admitted_bytes) + "B admitted of " +
        std::to_string(limit) + "B); query shed");
  }

  // Queue mode: wait for enough admitted queries to finish. Releases are
  // signaled through `cv`, but we also poll so a timeout set mid-wait or a
  // release on another Database sharing the engine tracker cannot wedge us.
  registry.GetCounter("query.queued").Add(1);
  *outcome = "queued";
  const auto wait_start = std::chrono::steady_clock::now();
  obs::ScopedSpan wait_span(trace, "admission.wait");
  const bool has_deadline = gov.timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(gov.timeout_ms);
  while (active_->admitted_bytes + estimate > limit) {
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      *queue_micros = ElapsedMicros(wait_start);
      return Status::DeadlineExceeded(
          "admission: queued past the session timeout (" +
          std::to_string(gov.timeout_ms) + "ms)");
    }
    active_->cv.wait_for(lock, std::chrono::milliseconds(10));
  }
  *queue_micros = ElapsedMicros(wait_start);
  wait_span.AddAttribute("queue_micros",
                         static_cast<double>(*queue_micros));
  active_->admitted_bytes += estimate;
  *admitted = true;
  return Status::OK();
}

void Database::LogFailedStatement(Session& session,
                                  const StatementInfo& info) const {
  obs::QueryLogEntry entry;
  entry.id = query_log_->NextId();
  entry.session_id = static_cast<int64_t>(session.id());
  entry.text = info.text;
  entry.status = "error";
  entry.plan_micros = info.plan_micros;
  entry.wall_micros = ElapsedMicros(info.wall_start);
  entry.cpu_micros =
      std::max<int64_t>(0, ProcessCpuMicros() - info.cpu_start_micros);
  entry.tier = info.tier;
  entry.dop = info.dop;
  session.RecordStatement(false, 0);
  query_log_->Record(std::move(entry), {});
}

void Database::LogSimpleStatement(Session& session, const StatementInfo& info,
                                  const Status& status, int64_t rows_out,
                                  size_t peak_bytes) const {
  obs::QueryLogEntry entry;
  entry.id = query_log_->NextId();
  entry.session_id = static_cast<int64_t>(session.id());
  entry.text = info.text;
  entry.status = StatusToLogString(status.code());
  entry.plan_micros = info.plan_micros;
  entry.wall_micros = ElapsedMicros(info.wall_start);
  entry.cpu_micros =
      std::max<int64_t>(0, ProcessCpuMicros() - info.cpu_start_micros);
  entry.rows_out = rows_out;
  entry.peak_memory_bytes = static_cast<int64_t>(peak_bytes);
  entry.tier = info.tier;
  session.RecordStatement(status.ok(), rows_out);
  query_log_->Record(std::move(entry), {});
}

Result<Table> Database::RunPlan(Session& session,
                                const SessionGovernance& gov, Operator& root,
                                obs::QueryTrace* trace, RunStats* run_stats,
                                const StatementInfo& info) const {
  auto& registry = obs::MetricsRegistry::Global();

  obs::QueryLogEntry entry;
  entry.id = query_log_->NextId();
  entry.session_id = static_cast<int64_t>(session.id());
  entry.text = info.text;
  entry.plan_micros = info.plan_micros;
  entry.dop = info.dop;
  entry.tier = info.tier;
  entry.est_rows = info.est_rows;
  entry.strategy = info.strategy;
  const uint64_t query_id = entry.id;

  // Prefer the cost model's stats-driven footprint over the operators'
  // coarse structural guess; without ANALYZE the plan carries no estimate
  // and admission behaves exactly as before.
  const auto& plan_est = root.plan_estimate();
  const size_t estimate = plan_est.bytes >= 0
                              ? static_cast<size_t>(plan_est.bytes)
                              : root.EstimateFootprintBytes();
  entry.estimated_bytes = static_cast<int64_t>(estimate);

  const auto finish_entry = [&](Status::Code code, bool executed_ok) {
    entry.wall_micros = ElapsedMicros(info.wall_start);
    entry.cpu_micros =
        std::max<int64_t>(0, ProcessCpuMicros() - info.cpu_start_micros);
    if (gov.slow_query_micros > 0 &&
        entry.wall_micros > gov.slow_query_micros) {
      entry.slow = true;
      registry.GetCounter("query.slow").Add(1);
    }
    entry.status = executed_ok ? "ok" : StatusToLogString(code);
  };

  bool admitted = false;
  Status admit = AdmitQuery(gov, estimate, &admitted, &entry.admission,
                            &entry.queue_micros, trace);
  if (run_stats != nullptr) {
    run_stats->queue_micros = entry.queue_micros;
    run_stats->plan_micros = info.plan_micros;
  }
  if (!admit.ok()) {
    finish_entry(admit.code(), false);
    // The admission gate's ResourceExhausted is a shed, not an in-flight
    // budget breach.
    if (admit.code() == Status::Code::kResourceExhausted) {
      entry.status = "shed";
    }
    trace->Finish();
    session.RecordStatement(false, 0);
    query_log_->Record(std::move(entry), {});
    if (gov.trace_enabled) trace_log_->Append(*trace, query_id);
    return admit;
  }

  QueryContext ctx(gov.memory_budget_bytes);
  ActivateContext(session, gov, trace, &ctx);
  root.SetQueryContext(&ctx);

  const auto exec_start = std::chrono::steady_clock::now();
  Result<Table> result = Execute(root, trace);
  entry.exec_micros = ElapsedMicros(exec_start);

  DeactivateContext(session, &ctx, admitted ? estimate : 0);
  const size_t peak = ctx.memory().peak_bytes();
  if (run_stats != nullptr) {
    run_stats->peak_bytes = peak;
    run_stats->spill_events = ctx.spill_events();
    run_stats->spill_bytes = ctx.spill_bytes();
    run_stats->exec_micros = entry.exec_micros;
  }
  entry.peak_memory_bytes = static_cast<int64_t>(peak);
  entry.spill_events = static_cast<int64_t>(ctx.spill_events());
  entry.spill_bytes = static_cast<int64_t>(ctx.spill_bytes());
  entry.rows_in = SumScanRows(root);
  if (result.ok()) {
    entry.rows_out = static_cast<int64_t>(result.value().NumRows());
  }
  // Detach before `ctx` dies: the plan can be re-executed or rendered later.
  root.SetQueryContext(nullptr);

  if (ctx.spill_events() > 0) registry.GetCounter("query.spilled").Add(1);
  registry.GetGauge("mem.query.peak").Set(static_cast<double>(peak));
  registry.GetGauge("mem.engine.usage")
      .Set(static_cast<double>(MemoryTracker::EngineGlobal().usage_bytes()));
  registry.GetGauge("mem.engine.peak")
      .Set(static_cast<double>(MemoryTracker::EngineGlobal().peak_bytes()));
  if (!result.ok()) {
    switch (result.status().code()) {
      case Status::Code::kCancelled:
        registry.GetCounter("query.cancelled").Add(1);
        break;
      case Status::Code::kDeadlineExceeded:
        registry.GetCounter("query.timeout").Add(1);
        break;
      case Status::Code::kResourceExhausted:
        registry.GetCounter("query.mem_exceeded").Add(1);
        break;
      default:
        break;
    }
  }

  finish_entry(result.ok() ? Status::Code::kOk : result.status().code(),
               result.ok());
  std::vector<obs::OperatorStatsEntry> op_stats;
  int64_t op_index = 0;
  CollectOperatorStats(root, query_id, 0, &op_index, &op_stats);
  trace->Finish();
  session.RecordStatement(result.ok(), entry.rows_out);
  query_log_->Record(std::move(entry), std::move(op_stats));
  if (gov.trace_enabled) trace_log_->Append(*trace, query_id);
  return result;
}

}  // namespace sgb::engine
