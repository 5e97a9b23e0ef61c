#ifndef SGB_ENGINE_EXECUTOR_H_
#define SGB_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/catalog.h"
#include "engine/continuous.h"
#include "engine/operators.h"
#include "engine/session.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sql/planner.h"
#include "storage/storage_engine.h"

namespace sgb::engine {

/// Top-level facade tying the SQL front end to the engine: register tables,
/// run SQL strings, get materialized results. This is the entry point the
/// examples, the SQL-level benchmarks, and the server front end use.
///
///   Database db;
///   db.Register("gpspoints", table);
///   auto result = db.Query(
///       "SELECT count(*) FROM gpspoints "
///       "GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3 "
///       "ON-OVERLAP ELIMINATE");
///
/// Concurrency (docs/SERVER.md): a Database hosts many Sessions, each with
/// its own governance knobs, plan cache, and prepared statements; every
/// session-less legacy call runs on a built-in default session, so the
/// historical single-session API is unchanged. Statements from different
/// sessions execute concurrently; every table is a TableSource read through
/// pinned snapshots, so readers never block writers and never observe a
/// torn INSERT.
///
/// Observability: every Query() run bumps `engine.queries` and records its
/// wall time into the `engine.query_us` histogram of the global
/// obs::MetricsRegistry. Passing a QueryTrace collects a structured span
/// hierarchy (parse / plan / execute) for the run, and
/// `EXPLAIN ANALYZE <select>` — via Query() or ExplainAnalyze() — executes
/// the plan and renders every operator annotated with rows, wall time,
/// peak memory, and operator-specific counters (e.g. SGB distance
/// computations).
class Database {
 public:
  Database();

  /// Opens (or creates) a *disk-backed* database rooted at `directory`
  /// (docs/STORAGE.md). CREATE TABLE / INSERT / DROP TABLE run against the
  /// paged storage engine: rows land in slotted pages cached by a buffer
  /// pool, every INSERT is WAL-logged and fsynced before it is
  /// acknowledged, and reopening the directory after a crash replays the
  /// WAL back to the exact pre-crash state. Queries are unchanged — paged
  /// tables stream through the same operators as in-memory ones.
  static Result<Database> Open(const std::string& directory,
                               const storage::StorageOptions& options = {});

  /// The paged storage engine, or null for an in-memory Database.
  storage::StorageEngine* storage() const { return storage_.get(); }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Registers or replaces a stored table (Catalog::Register).
  Status Register(const std::string& name, TablePtr table) {
    return catalog_.Register(name, std::move(table));
  }

  // ---- Sessions (docs/SERVER.md) ----------------------------------------

  /// Creates a new session (fresh governance defaults, empty plan cache);
  /// it appears in system.sessions until released. `peer` labels the
  /// origin ("unix:fd=7", "tcp:127.0.0.1:52114", "local").
  SessionPtr CreateSession(std::string peer = "local") const {
    return std::make_shared<Session>(sessions_, std::move(peer));
  }

  /// The built-in session the legacy session-less API runs on.
  Session& default_session() const { return *default_session_; }

  /// The registry behind system.sessions.
  SessionRegistry& sessions() const { return *sessions_; }

  /// The CREATE CONTINUOUS QUERY registry (docs/STREAMING.md): incremental
  /// window maintenance, delta subscriptions (the server's SUBSCRIBE verb),
  /// and the system.continuous_queries surface.
  ContinuousQueryManager& continuous() const { return *continuous_; }

  /// Parses + plans the SQL (ignoring any EXPLAIN prefix); the returned
  /// operator can be opened and drained with NextBatch() repeatedly.
  Result<OperatorPtr> Prepare(const std::string& sql) const;

  /// Parses, plans and fully materializes the result table on the default
  /// session. A statement prefixed with EXPLAIN [ANALYZE] instead returns
  /// a single-column `plan` table holding the (annotated) plan, one row
  /// per line.
  Result<Table> Query(const std::string& sql,
                      obs::QueryTrace* trace = nullptr) const {
    return Query(*default_session_, sql, trace);
  }

  /// Runs one statement on `session`: SELECT (cached plans are reused),
  /// EXPLAIN [ANALYZE], PROFILE, SET, CREATE TABLE, INSERT, DROP TABLE.
  Result<Table> Query(Session& session, const std::string& sql,
                      obs::QueryTrace* trace = nullptr) const;

  /// EXPLAIN: renders the physical plan the SQL would execute. Accepts the
  /// bare SELECT or the EXPLAIN-prefixed form.
  Result<std::string> Explain(const std::string& sql) const;

  /// EXPLAIN ANALYZE: plans, executes (discarding rows), and renders the
  /// plan annotated with per-operator execution counters. Accepts the bare
  /// SELECT or the EXPLAIN ANALYZE-prefixed form.
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     obs::QueryTrace* trace = nullptr) const;

  /// Validates `sql` (parse + plan; must be a result-producing statement)
  /// and binds it to `name` on the session; the plan cache is warmed, so
  /// the first ExecutePrepared skips planning.
  Status PrepareStatement(Session& session, const std::string& name,
                          const std::string& sql) const;

  /// Runs a statement previously bound with PrepareStatement.
  Result<Table> ExecutePrepared(Session& session, const std::string& name,
                                obs::QueryTrace* trace = nullptr) const;

  /// Session default degree of parallelism for SGB operators (1 = serial,
  /// k > 1 = up to k workers, 0 = auto; unset = serial unless the planner
  /// picks auto for a large input). Applies to queries without an explicit
  /// PARALLEL clause; grouping results are identical at every setting
  /// (docs/PARALLELISM.md).
  void set_default_sgb_dop(std::optional<int> dop) {
    default_session_->set_default_sgb_dop(dop);
  }
  std::optional<int> default_sgb_dop() const {
    return default_session_->default_sgb_dop();
  }

  // ---- Governance (docs/ROBUSTNESS.md) ----------------------------------
  //
  // Each Query() run executes under a QueryContext: a per-query
  // MemoryTracker (parented to MemoryTracker::EngineGlobal()) bounded by
  // the session budget, plus a cancel flag and wall-clock deadline checked
  // cooperatively at batch/morsel granularity. Breaches surface as
  // Status::ResourceExhausted / DeadlineExceeded / Cancelled — the engine
  // never OOMs or wedges on a runaway query. The knobs are also reachable
  // from SQL: `SET timeout = <ms>`, `SET memory_budget = <bytes>`,
  // `SET parallel = <dop>`. They are per-session; these accessors adjust
  // the default session.

  /// Wall-clock timeout applied to each subsequent query (0 = none).
  void set_timeout_ms(int64_t ms) { default_session_->set_timeout_ms(ms); }
  int64_t timeout_ms() const { return default_session_->timeout_ms(); }

  /// Per-query memory budget in bytes (0 = unlimited).
  void set_memory_budget_bytes(size_t bytes) {
    default_session_->set_memory_budget_bytes(bytes);
  }
  size_t memory_budget_bytes() const {
    return default_session_->memory_budget_bytes();
  }

  /// Out-of-core fallback (`SET spill = 1`): when enabled, the blocking
  /// operators (hash aggregate/join, sort, the SGB drain) spill to temp
  /// files on a budget breach and retry per-partition instead of failing
  /// with ResourceExhausted. Results are unchanged; EXPLAIN ANALYZE gains
  /// `spilled=` / `spill_bytes=` lines when a query spilled.
  void set_spill_enabled(bool enabled) {
    default_session_->set_spill_enabled(enabled);
  }
  bool spill_enabled() const { return default_session_->spill_enabled(); }

  /// Spill temp-file directory (empty = SGB_SPILL_DIR / TMPDIR / /tmp).
  void set_spill_directory(std::string dir) {
    default_session_->set_spill_directory(std::move(dir));
  }
  std::string spill_directory() const {
    return default_session_->spill_directory();
  }

  /// Admission control (`SET admission = queue|shed|off`): gate each query
  /// at plan time on its estimated footprint against the engine headroom.
  void set_admission_mode(AdmissionMode mode) {
    default_session_->set_admission_mode(mode);
  }
  AdmissionMode admission_mode() const {
    return default_session_->admission_mode();
  }

  /// Admission headroom in bytes; 0 falls back to the engine-global
  /// tracker's limit (SGB_ENGINE_MEMORY_LIMIT). With both zero, admission
  /// is a no-op even when a mode is set.
  void set_admission_budget_bytes(size_t bytes) {
    default_session_->set_admission_budget_bytes(bytes);
  }
  size_t admission_budget_bytes() const {
    return default_session_->admission_budget_bytes();
  }

  /// Cooperatively cancels every query currently executing on this
  /// Database — all sessions. Callable from any thread; the running
  /// queries fail with Status::Cancelled at their next governance check
  /// and the Database remains fully usable afterwards. To cancel one
  /// session's queries only, use Session::CancelActive().
  void Cancel() const;

  // ---- Introspection (docs/OBSERVABILITY.md) ----------------------------
  //
  // Every executed statement — whatever its outcome — lands in the query
  // log, queryable as `SELECT * FROM system.query_log` alongside
  // system.metrics, system.operator_stats, system.tables, and
  // system.sessions. `PROFILE <select>` executes the statement and returns
  // its span tree as rows. `SET trace = 1` additionally accumulates every
  // traced span into the session TraceLog for Chrome/Perfetto export.

  /// The bounded ring buffer behind system.query_log/operator_stats.
  obs::QueryLog& query_log() const { return *query_log_; }

  /// Span accumulator behind `SET trace = 1` (shared by all sessions).
  obs::TraceLog& trace_log() const { return *trace_log_; }

  /// Writes the TraceLog as Chrome trace-event JSON
  /// ({"traceEvents":[...]}, loadable in chrome://tracing / Perfetto).
  Status ExportTrace(const std::string& path) const {
    return trace_log_->WriteChromeJson(path);
  }

  /// Trace capture on the default session (`SET trace = 1`). Enabling
  /// traces has no effect on query results — only on what the TraceLog
  /// accumulates.
  void set_trace_enabled(bool enabled) {
    default_session_->set_trace_enabled(enabled);
  }
  bool trace_enabled() const { return default_session_->trace_enabled(); }

  /// Slow-query threshold in microseconds (`SET slow_query_micros = n`);
  /// statements whose wall time exceeds it are flagged `slow` in the query
  /// log and counted in `query.slow`. 0 disables the flag.
  void set_slow_query_micros(int64_t micros) {
    default_session_->set_slow_query_micros(micros);
  }
  int64_t slow_query_micros() const {
    return default_session_->slow_query_micros();
  }

 private:
  /// Per-run governance outcomes surfaced to EXPLAIN ANALYZE.
  struct RunStats {
    size_t peak_bytes = 0;
    uint64_t spill_events = 0;
    uint64_t spill_bytes = 0;
    int64_t queue_micros = 0;
    int64_t plan_micros = 0;
    int64_t exec_micros = 0;
  };

  /// Statement-level context RunPlan needs to write the query-log entry:
  /// the submitted text, the plan phase's cost, the SGB tier/DOP the
  /// statement carries, and the lifecycle start marks.
  struct StatementInfo {
    std::string text;
    int64_t plan_micros = 0;
    int64_t dop = 0;
    std::string tier = "none";
    int64_t est_rows = 0;     ///< cost-model row estimate (0 = no stats)
    size_t est_bytes = 0;     ///< cost-model footprint estimate
    std::string strategy;     ///< chosen SGB tier / group-by strategy
    std::chrono::steady_clock::time_point wall_start{};
    int64_t cpu_start_micros = 0;
  };

  Result<Table> ApplySet(Session& session,
                         const sql::SetStatement& set) const;

  /// Executes CREATE TABLE / INSERT / DROP TABLE against the catalog's
  /// append-only tables, recording one query-log entry each.
  Result<Table> ExecuteCreate(Session& session,
                              const sql::CreateTableStatement& create,
                              StatementInfo* info) const;
  Result<Table> ExecuteInsert(Session& session,
                              const sql::InsertStatement& insert,
                              StatementInfo* info) const;
  Result<Table> ExecuteDrop(Session& session,
                            const sql::DropTableStatement& drop,
                            StatementInfo* info) const;

  /// ANALYZE [table]: streams the named table (or every non-virtual table)
  /// under a QueryContext built from `gov`, as a SELECT runs, and installs
  /// fresh statistics, bumping the catalog version so cached plans replan.
  Result<Table> ExecuteAnalyze(Session& session, const SessionGovernance& gov,
                               const sql::AnalyzeStatement& analyze,
                               obs::QueryTrace* trace,
                               StatementInfo* info) const;

  /// CREATE/DROP CONTINUOUS QUERY against the continuous-query registry
  /// (docs/STREAMING.md), recording one query-log entry each.
  Result<Table> ExecuteCreateContinuous(Session& session,
                                        sql::CreateContinuousStatement stmt,
                                        StatementInfo* info) const;
  Result<Table> ExecuteDropContinuous(Session& session,
                                      const sql::DropContinuousStatement& drop,
                                      StatementInfo* info) const;

  /// CHECKPOINT: flush dirty pages, publish a fresh manifest, truncate the
  /// WAL (docs/STORAGE.md). InvalidArgument on an in-memory Database.
  Result<Table> ExecuteCheckpoint(Session& session,
                                  StatementInfo* info) const;

  /// Admission gate: decides at plan time whether a query whose estimated
  /// footprint is `estimate` bytes may run now. Queue mode blocks until
  /// headroom frees up (bounded by the session timeout when one is set);
  /// shed mode fails fast. `*admitted` reports whether headroom was
  /// actually reserved (and must be released after the run); `*outcome`
  /// gets the query log's admission column (admitted|queued|shed),
  /// `*queue_micros` the time spent waiting, and `trace` an
  /// `admission.wait` span when the query queued.
  Status AdmitQuery(const SessionGovernance& gov, size_t estimate,
                    bool* admitted, std::string* outcome,
                    int64_t* queue_micros, obs::QueryTrace* trace) const;

  /// Applies `gov` (timeout, spill, trace) to `ctx` and registers it, so
  /// Cancel() and Session::CancelActive() reach it.
  void ActivateContext(Session& session, const SessionGovernance& gov,
                       obs::QueryTrace* trace, QueryContext* ctx) const;

  /// Undoes ActivateContext and returns `admitted_bytes` of headroom.
  void DeactivateContext(Session& session, QueryContext* ctx,
                         size_t admitted_bytes) const;

  /// Executes `root` under a fresh QueryContext built from the session's
  /// governance snapshot `gov`, maintaining both the Database-wide and the
  /// session's active-query registries and the `mem.*` / `query.*`
  /// metrics, and records exactly one query-log entry whatever the
  /// outcome (ok, cancelled, timeout, mem_exceeded, shed, error).
  /// `run_stats`, when non-null, receives the query's peak tracked memory,
  /// spill totals, and phase timings (the EXPLAIN ANALYZE footer). The
  /// trace is Finish()ed and, with `SET trace = 1`, appended to the
  /// TraceLog.
  Result<Table> RunPlan(Session& session, const SessionGovernance& gov,
                        Operator& root, obs::QueryTrace* trace,
                        RunStats* run_stats, const StatementInfo& info) const;

  /// Records a query-log entry for a statement that failed before
  /// execution (parse/bind/plan errors).
  void LogFailedStatement(Session& session, const StatementInfo& info) const;

  /// Records a query-log entry for a non-plan statement (DDL/DML/ANALYZE);
  /// `peak_bytes` is the statement's peak tracked memory, if it had any.
  void LogSimpleStatement(Session& session, const StatementInfo& info,
                          const Status& status, int64_t rows_out,
                          size_t peak_bytes = 0) const;

  /// Registry of the queries executing right now across every session;
  /// behind a shared_ptr so Database stays movable (tests build and
  /// return them by value).
  struct ActiveQueries {
    std::mutex mu;
    std::condition_variable cv;  ///< signaled when admitted queries finish
    std::vector<QueryContext*> contexts;
    size_t admitted_bytes = 0;   ///< estimated footprints currently admitted
  };

  Catalog catalog_;
  std::shared_ptr<ActiveQueries> active_ = std::make_shared<ActiveQueries>();
  // Behind shared_ptrs so Database stays movable: the system-table
  // providers registered on catalog_ capture these by value.
  std::shared_ptr<obs::QueryLog> query_log_ =
      std::make_shared<obs::QueryLog>();
  std::shared_ptr<obs::TraceLog> trace_log_ =
      std::make_shared<obs::TraceLog>();
  std::shared_ptr<SessionRegistry> sessions_ =
      std::make_shared<SessionRegistry>();
  std::shared_ptr<ContinuousQueryManager> continuous_ =
      std::make_shared<ContinuousQueryManager>();
  std::shared_ptr<Session> default_session_ =
      std::make_shared<Session>(sessions_, "local");
  /// Set by Open(): the paged storage engine behind a disk-backed
  /// Database. Shared so system-table providers can capture it.
  std::shared_ptr<storage::StorageEngine> storage_;
};

}  // namespace sgb::engine

#endif  // SGB_ENGINE_EXECUTOR_H_
