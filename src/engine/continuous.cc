#include "engine/continuous.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "obs/metrics.h"

namespace sgb::engine {

namespace {

/// Checked before a window close mutates anything: an injected close
/// failure leaves the window open and fully consistent, so the next
/// INSERT retries the close (tests/engine/continuous_test.cc,
/// governance_test.cc). File scope so the site registers at startup,
/// like every other planted fault.
FaultSite g_close_fault("continuous.window_close", Status::Code::kInternal);

/// SplitMix64 finalizer, used to derive identity arbitration keys.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t FloorDiv(double value, double divisor) {
  return static_cast<int64_t>(std::floor(value / divisor));
}

const char* KindName(sql::SimilarityClause::Kind kind) {
  return kind == sql::SimilarityClause::Kind::kAll ? "all" : "any";
}

const char* MetricName(geom::Metric metric) {
  return metric == geom::Metric::kL2 ? "l2" : "linf";
}

const char* WindowKindName(sql::WindowClause::Kind kind) {
  return kind == sql::WindowClause::Kind::kTumbling ? "tumbling" : "sliding";
}

/// Resolves a bare or qualified column reference against the base table.
Status ResolveColumn(const Schema& schema, const std::string& qualifier,
                     const std::string& name, const std::string& what,
                     size_t* index) {
  const Schema::Lookup lookup = schema.Find(qualifier, name);
  if (lookup.outcome == Schema::LookupOutcome::kNotFound) {
    return Status::InvalidArgument("continuous query: " + what + " '" + name +
                                   "' not found in the base table");
  }
  if (lookup.outcome == Schema::LookupOutcome::kAmbiguous) {
    return Status::InvalidArgument("continuous query: " + what + " '" + name +
                                   "' is ambiguous");
  }
  const DataType type = schema.column(lookup.index).type;
  if (type != DataType::kInt64 && type != DataType::kDouble) {
    return Status::InvalidArgument("continuous query: " + what + " '" + name +
                                   "' must be numeric");
  }
  *index = lookup.index;
  return Status::OK();
}

/// RAII registration of an in-flight maintenance context, so
/// CancelActive() reaches it.
class ScopedActive {
 public:
  ScopedActive(std::mutex* mu, std::vector<QueryContext*>* active,
               QueryContext* ctx)
      : mu_(mu), active_(active), ctx_(ctx) {
    std::lock_guard<std::mutex> lock(*mu_);
    active_->push_back(ctx_);
  }
  ~ScopedActive() {
    std::lock_guard<std::mutex> lock(*mu_);
    active_->erase(std::find(active_->begin(), active_->end(), ctx_));
  }

 private:
  std::mutex* mu_;
  std::vector<QueryContext*>* active_;
  QueryContext* ctx_;
};

}  // namespace

uint64_t ArrivalKey(double t, double x, double y) {
  uint64_t h = Mix64(std::bit_cast<uint64_t>(t));
  h = Mix64(h ^ std::bit_cast<uint64_t>(x));
  h = Mix64(h ^ std::bit_cast<uint64_t>(y));
  return h;
}

/// The continuous query's resolved physical form: the base table's column
/// indices plus the similarity and window parameters. Recomputed from the
/// stored AST whenever the catalog version moves (plan_rebuilds).
struct ContinuousQueryManager::Config {
  std::string table;
  sql::SimilarityClause::Kind kind = sql::SimilarityClause::Kind::kAny;
  geom::Metric metric = geom::Metric::kL2;
  double epsilon = 0.0;
  core::OverlapClause on_overlap = core::OverlapClause::kJoinAny;
  int dop = 1;
  sql::WindowClause window;
  size_t x_col = 0;
  size_t y_col = 0;
  size_t t_col = 0;
};

/// One event-time window currently being maintained. Exactly one of
/// all/any is set, per the query's similarity kind.
struct ContinuousQueryManager::OpenWindow {
  double start = 0.0;
  double end = 0.0;
  std::unique_ptr<core::IncrementalSgbAll> all;
  std::unique_ptr<core::IncrementalSgbAny> any;

  struct Arrival {
    double t = 0.0;
    double x = 0.0;
    double y = 0.0;
    uint64_t seq = 0;  ///< per-query arrival sequence number
    uint64_t key = 0;  ///< identity arbitration key
  };
  std::vector<Arrival> arrivals;  ///< arrival order (core insert order)
  std::vector<GroupDelta> deltas;
};

struct ContinuousQueryManager::Cq {
  std::string name;
  std::string table;  ///< base table (fixed by the AST; never re-resolved)
  std::string definition;
  sql::CreateContinuousStatement stmt;  ///< owns the AST for re-resolution

  std::mutex mu;  ///< guards everything below
  Config config;
  uint64_t planned_version = 0;
  uint64_t plan_rebuilds = 0;

  bool has_watermark = false;
  double watermark = -std::numeric_limits<double>::infinity();
  /// Windows with index < next_unclosed have closed; arrivals for them are
  /// late. Window end times are monotone in the index, so closes advance
  /// this monotonically.
  int64_t next_unclosed = std::numeric_limits<int64_t>::min();
  uint64_t arrivals_seen = 0;

  uint64_t rows_seen = 0;
  uint64_t late_rows = 0;
  uint64_t skipped_rows = 0;  ///< NULL / non-numeric time or coordinates
  uint64_t windows_closed = 0;
  uint64_t delta_events = 0;
  uint64_t differential_checks = 0;

  std::map<int64_t, OpenWindow> open;
  std::map<uint64_t, Subscriber> subscribers;
};

ContinuousQueryManager::ContinuousQueryManager()
    : memory_("continuous", &MemoryTracker::EngineGlobal()) {}

Status ContinuousQueryManager::Resolve(const Catalog& catalog,
                                       const sql::SelectStatement& select,
                                       Config* config) {
  if (select.from.size() != 1 || select.from[0].subquery != nullptr ||
      select.from[0].table_name.empty()) {
    return Status::InvalidArgument(
        "continuous query: FROM must name exactly one table");
  }
  const std::string& table = select.from[0].table_name;
  AppendTablePtr appendable = catalog.FindAppendable(table);
  if (appendable == nullptr) {
    return Status::InvalidArgument(
        "continuous query: '" + table +
        "' is not an append-only table (only CREATE TABLE tables stream)");
  }
  using Kind = sql::SimilarityClause::Kind;
  if (select.similarity.kind != Kind::kAll &&
      select.similarity.kind != Kind::kAny) {
    return Status::InvalidArgument(
        "continuous query: the SELECT must carry a SIMILARITY GROUP BY "
        "(DISTANCE-TO-ALL or DISTANCE-TO-ANY)");
  }
  if (!(select.similarity.epsilon > 0.0)) {
    return Status::InvalidArgument(
        "continuous query: WITHIN epsilon must be positive");
  }
  if (!select.window.has_value()) {
    return Status::InvalidArgument(
        "continuous query: the SELECT must carry a WINDOW clause");
  }
  const sql::WindowClause& window = *select.window;
  if (!(window.size > 0.0) || !(window.advance > 0.0) ||
      window.advance > window.size) {
    return Status::InvalidArgument(
        "continuous query: WINDOW requires 0 < advance <= size");
  }
  if (select.group_by.size() != 2) {
    return Status::InvalidArgument(
        "continuous query: SIMILARITY GROUP BY takes exactly two columns");
  }
  if (select.where != nullptr || select.having != nullptr ||
      !select.order_by.empty() || select.limit.has_value()) {
    return Status::InvalidArgument(
        "continuous query: WHERE/HAVING/ORDER BY/LIMIT are not supported");
  }
  const int dop = select.similarity.dop.value_or(1);
  if (dop < 0) {
    return Status::InvalidArgument("continuous query: PARALLEL must be >= 0");
  }

  const Schema& schema = appendable->schema();
  Config out;
  out.table = table;
  out.kind = select.similarity.kind;
  out.metric = select.similarity.metric;
  out.epsilon = select.similarity.epsilon;
  out.on_overlap = select.similarity.on_overlap;
  out.dop = dop;
  out.window = window;
  for (size_t axis = 0; axis < 2; ++axis) {
    const sql::ParsedExpr& e = *select.group_by[axis];
    if (e.kind != sql::ParsedExpr::Kind::kColumn) {
      return Status::InvalidArgument(
          "continuous query: GROUP BY columns must be plain column "
          "references");
    }
    SGB_RETURN_IF_ERROR(ResolveColumn(
        schema, e.qualifier, e.name, "grouping column",
        axis == 0 ? &out.x_col : &out.y_col));
  }
  SGB_RETURN_IF_ERROR(ResolveColumn(schema, "", window.time_column,
                                    "WINDOW time column", &out.t_col));
  *config = std::move(out);
  return Status::OK();
}

Status ContinuousQueryManager::Create(const Catalog& catalog,
                                      sql::CreateContinuousStatement stmt,
                                      std::string definition) {
  if (stmt.select == nullptr) {
    return Status::InvalidArgument(
        "continuous query: missing SELECT body");
  }
  Config config;
  SGB_RETURN_IF_ERROR(Resolve(catalog, *stmt.select, &config));

  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.count(stmt.name) != 0) {
    if (stmt.if_not_exists) return Status::OK();
    return Status::InvalidArgument("continuous query '" + stmt.name +
                                   "' already exists");
  }
  auto cq = std::make_shared<Cq>();
  cq->name = stmt.name;
  cq->table = config.table;
  cq->definition = std::move(definition);
  cq->config = std::move(config);
  cq->planned_version = catalog.version();
  cq->stmt = std::move(stmt);
  queries_.emplace(cq->name, std::move(cq));
  return Status::OK();
}

Status ContinuousQueryManager::Drop(const std::string& name, bool if_exists) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queries_.erase(name) == 0 && !if_exists) {
    return Status::NotFound("no continuous query named '" + name + "'");
  }
  return Status::OK();
}

Status ContinuousQueryManager::ApplyArrival(Cq& cq, OpenWindow& window,
                                            double t, double x, double y,
                                            QueryContext* ctx) {
  const geom::Point p{x, y};
  const uint64_t seq = cq.arrivals_seen;
  const uint64_t key = ArrivalKey(t, x, y);
  Result<core::DeltaEvent> event = [&] {
    if (window.all != nullptr) {
      window.all->set_query_ctx(ctx);
      auto out = window.all->Insert(p, key);
      window.all->set_query_ctx(nullptr);
      return out;
    }
    window.any->set_query_ctx(ctx);
    auto out = window.any->Insert(p);
    window.any->set_query_ctx(nullptr);
    return out;
  }();
  // A failed core insert mutated nothing, so skipping the arrival record
  // keeps the maintained window self-consistent; the INSERT's error tells
  // the client the maintained state may lag the base table.
  if (!event.ok()) return event.status();
  window.arrivals.push_back(OpenWindow::Arrival{t, x, y, seq, key});
  window.deltas.push_back(
      GroupDelta{core::ToString(event.value().kind),
                 static_cast<int64_t>(seq),
                 static_cast<int64_t>(event.value().merged_groups)});
  return Status::OK();
}

Status ContinuousQueryManager::CloseWindow(Cq& cq, int64_t index,
                                           QueryContext* ctx,
                                           std::vector<DeltaBatch>* closed) {
  SGB_RETURN_IF_ERROR(g_close_fault.Check());

  OpenWindow& window = cq.open.at(index);
  const size_t n = window.arrivals.size();

  // The window's canonical order: (event time, x, y, arrival seq). Purely
  // content-defined (the seq only breaks exact duplicate rows), so every
  // arrival order of the same rows closes identically.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const OpenWindow::Arrival& ra = window.arrivals[a];
    const OpenWindow::Arrival& rb = window.arrivals[b];
    if (ra.t != rb.t) return ra.t < rb.t;
    if (ra.x != rb.x) return ra.x < rb.x;
    if (ra.y != rb.y) return ra.y < rb.y;
    return ra.seq < rb.seq;
  });

  std::vector<geom::Point> points(n);
  std::vector<uint64_t> keys(n);
  for (size_t k = 0; k < n; ++k) {
    const OpenWindow::Arrival& a = window.arrivals[order[k]];
    points[k] = geom::Point{a.x, a.y};
    keys[k] = a.key;
  }

  // Maintained grouping (incremental state) vs from-scratch batch
  // execution at the query's configured DOP — the differential check every
  // close must pass before any delta is published.
  Result<core::Grouping> maintained = [&]() -> Result<core::Grouping> {
    if (window.all != nullptr) {
      window.all->set_query_ctx(ctx);
      auto out = window.all->Snapshot(order);
      window.all->set_query_ctx(nullptr);
      return out;
    }
    window.any->set_query_ctx(ctx);
    auto out = window.any->Snapshot(order);
    window.any->set_query_ctx(nullptr);
    return out;
  }();
  if (!maintained.ok()) return maintained.status();

  Result<core::Grouping> batch = [&]() -> Result<core::Grouping> {
    if (window.all != nullptr) {
      core::SgbAllOptions options;
      options.epsilon = cq.config.epsilon;
      options.metric = cq.config.metric;
      options.on_overlap = cq.config.on_overlap;
      options.degree_of_parallelism = cq.config.dop;
      options.query_ctx = ctx;
      options.arbitration_keys = keys;
      return core::SgbAll(points, options);
    }
    core::SgbAnyOptions options;
    options.epsilon = cq.config.epsilon;
    options.metric = cq.config.metric;
    options.degree_of_parallelism = cq.config.dop;
    options.query_ctx = ctx;
    return core::SgbAny(points, options);
  }();
  if (!batch.ok()) return batch.status();

  auto& registry = obs::MetricsRegistry::Global();
  ++cq.differential_checks;
  registry.GetCounter("continuous.differential_checks").Add(1);
  if (maintained.value().group_of != batch.value().group_of ||
      maintained.value().num_groups != batch.value().num_groups) {
    registry.GetCounter("continuous.differential_failures").Add(1);
    return Status::Internal(
        "continuous query '" + cq.name + "': maintained grouping for window [" +
        std::to_string(window.start) + ", " + std::to_string(window.end) +
        ") diverged from its batch re-execution");
  }

  DeltaBatch out;
  out.query = cq.name;
  out.window_start = window.start;
  out.window_end = window.end;
  out.rows = n;
  out.num_groups = maintained.value().num_groups;
  out.eliminated = maintained.value().NumEliminated();
  out.deltas = std::move(window.deltas);
  out.deltas.push_back(GroupDelta{
      "window_closed", -1, static_cast<int64_t>(out.num_groups)});

  ++cq.windows_closed;
  cq.delta_events += out.deltas.size();
  registry.GetCounter("continuous.windows_closed").Add(1);
  registry.GetCounter("continuous.delta_events").Add(out.deltas.size());

  closed->push_back(std::move(out));
  cq.next_unclosed = std::max(cq.next_unclosed, index + 1);
  cq.open.erase(index);
  return Status::OK();
}

Status ContinuousQueryManager::OnInsert(const Catalog& catalog,
                                        const std::string& table,
                                        const std::vector<Row>& rows) {
  std::vector<std::shared_ptr<Cq>> affected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, cq] : queries_) {
      if (cq->table == table) affected.push_back(cq);
    }
  }
  if (affected.empty()) return Status::OK();

  auto& registry = obs::MetricsRegistry::Global();
  for (const std::shared_ptr<Cq>& cq_ptr : affected) {
    Cq& cq = *cq_ptr;
    QueryContext ctx(0);
    ScopedActive active(&active_mu_, &active_, &ctx);

    std::vector<DeltaBatch> closed;
    Status status = Status::OK();
    {
      std::lock_guard<std::mutex> lock(cq.mu);

      // Catalog moved (DDL, ANALYZE, stats refresh): re-resolve the stored
      // AST, like the session plan cache replanning a cached SELECT.
      const uint64_t version = catalog.version();
      if (version != cq.planned_version) {
        SGB_RETURN_IF_ERROR(Resolve(catalog, *cq.stmt.select, &cq.config));
        cq.planned_version = version;
        ++cq.plan_rebuilds;
        registry.GetCounter("continuous.plan_rebuilds").Add(1);
      }

      const Config& config = cq.config;
      const double size = config.window.size;
      const double advance = config.window.advance;
      for (const Row& row : rows) {
        ++cq.rows_seen;
        const Value& tv = row[config.t_col];
        const Value& xv = row[config.x_col];
        const Value& yv = row[config.y_col];
        if (!tv.IsNumeric() || !xv.IsNumeric() || !yv.IsNumeric()) {
          ++cq.skipped_rows;
          registry.GetCounter("continuous.skipped_rows").Add(1);
          continue;
        }
        const double t = tv.ToDouble();
        const double x = xv.ToDouble();
        const double y = yv.ToDouble();

        // Every window [i*advance, i*advance + size) covering t.
        const int64_t i_max = FloorDiv(t, advance);
        const int64_t i_min = FloorDiv(t - size, advance) + 1;
        bool applied_all = true;
        for (int64_t i = i_min; i <= i_max; ++i) {
          const double start = static_cast<double>(i) * advance;
          const double end = start + size;
          if (t < start || t >= end) continue;  // boundary guard
          // Late = the target window already closed (not merely "behind
          // the watermark"): the watermark only advances closes at
          // statement end, so any arrival order *within* a statement is
          // tolerated, and a window the watermark passed before it ever
          // saw a row simply closes at this statement's close pass. This
          // keeps every close a pure function of the rows that reached
          // the window, whatever order they came in.
          if (i < cq.next_unclosed) {
            ++cq.late_rows;
            registry.GetCounter("continuous.late_rows").Add(1);
            continue;
          }
          auto [it, created] = cq.open.try_emplace(i);
          OpenWindow& window = it->second;
          if (created) {
            window.start = start;
            window.end = end;
            if (config.kind == sql::SimilarityClause::Kind::kAll) {
              core::SgbAllOptions options;
              options.epsilon = config.epsilon;
              options.metric = config.metric;
              options.on_overlap = config.on_overlap;
              window.all = std::make_unique<core::IncrementalSgbAll>(
                  options, &memory_);
            } else {
              core::SgbAnyOptions options;
              options.epsilon = config.epsilon;
              options.metric = config.metric;
              window.any = std::make_unique<core::IncrementalSgbAny>(
                  options, &memory_);
            }
          }
          status = ApplyArrival(cq, window, t, x, y, &ctx);
          if (!status.ok()) {
            applied_all = false;
            break;
          }
        }
        if (!applied_all) break;
        ++cq.arrivals_seen;
        if (!cq.has_watermark || t > cq.watermark) {
          cq.has_watermark = true;
          cq.watermark = t;
        }
      }

      // Close every window the watermark has passed, in index (= end time)
      // order. A failed close leaves its window open for the next INSERT
      // to retry; later windows stay open behind it so deltas keep their
      // order.
      while (status.ok() && !cq.open.empty()) {
        const auto it = cq.open.begin();
        if (!(cq.has_watermark && it->second.end <= cq.watermark)) break;
        status = CloseWindow(cq, it->first, &ctx, &closed);
      }
    }

    DeliverBatches(cq, closed);
    SGB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

void ContinuousQueryManager::DeliverBatches(
    Cq& cq, const std::vector<DeltaBatch>& closed) {
  if (closed.empty()) return;
  std::vector<std::pair<uint64_t, Subscriber>> subscribers;
  {
    std::lock_guard<std::mutex> lock(cq.mu);
    subscribers.assign(cq.subscribers.begin(), cq.subscribers.end());
  }
  std::vector<uint64_t> dead;
  for (auto& [id, fn] : subscribers) {
    for (const DeltaBatch& batch : closed) {
      if (!fn(batch)) {
        dead.push_back(id);
        break;
      }
    }
  }
  if (dead.empty()) return;
  std::lock_guard<std::mutex> lock(cq.mu);
  for (const uint64_t id : dead) cq.subscribers.erase(id);
}

Result<uint64_t> ContinuousQueryManager::Subscribe(const std::string& name,
                                                   Subscriber fn) {
  std::shared_ptr<Cq> cq;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(name);
    if (it == queries_.end()) {
      return Status::NotFound("no continuous query named '" + name + "'");
    }
    cq = it->second;
    id = next_subscription_id_++;
  }
  std::lock_guard<std::mutex> lock(cq->mu);
  cq->subscribers.emplace(id, std::move(fn));
  return id;
}

void ContinuousQueryManager::Unsubscribe(uint64_t id) {
  std::vector<std::shared_ptr<Cq>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, cq] : queries_) all.push_back(cq);
  }
  for (const std::shared_ptr<Cq>& cq : all) {
    std::lock_guard<std::mutex> lock(cq->mu);
    cq->subscribers.erase(id);
  }
}

void ContinuousQueryManager::CancelActive() {
  std::lock_guard<std::mutex> lock(active_mu_);
  for (QueryContext* ctx : active_) ctx->Cancel();
}

namespace {

Schema ContinuousQueriesSchema() {
  Schema s;
  s.AddColumn(Column{"name", DataType::kString, ""});
  s.AddColumn(Column{"table_name", DataType::kString, ""});
  s.AddColumn(Column{"kind", DataType::kString, ""});
  s.AddColumn(Column{"metric", DataType::kString, ""});
  s.AddColumn(Column{"epsilon", DataType::kDouble, ""});
  s.AddColumn(Column{"on_overlap", DataType::kString, ""});
  s.AddColumn(Column{"dop", DataType::kInt64, ""});
  s.AddColumn(Column{"window", DataType::kString, ""});
  s.AddColumn(Column{"window_size", DataType::kDouble, ""});
  s.AddColumn(Column{"window_advance", DataType::kDouble, ""});
  s.AddColumn(Column{"time_column", DataType::kString, ""});
  s.AddColumn(Column{"watermark", DataType::kDouble, ""});
  s.AddColumn(Column{"open_windows", DataType::kInt64, ""});
  s.AddColumn(Column{"rows_seen", DataType::kInt64, ""});
  s.AddColumn(Column{"late_rows", DataType::kInt64, ""});
  s.AddColumn(Column{"skipped_rows", DataType::kInt64, ""});
  s.AddColumn(Column{"windows_closed", DataType::kInt64, ""});
  s.AddColumn(Column{"delta_events", DataType::kInt64, ""});
  s.AddColumn(Column{"differential_checks", DataType::kInt64, ""});
  s.AddColumn(Column{"plan_rebuilds", DataType::kInt64, ""});
  s.AddColumn(Column{"subscribers", DataType::kInt64, ""});
  s.AddColumn(Column{"definition", DataType::kString, ""});
  return s;
}

}  // namespace

Status ContinuousQueryManager::SystemRows(Table* table) const {
  std::vector<std::shared_ptr<Cq>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, cq] : queries_) all.push_back(cq);
  }
  table->Reserve(all.size());
  for (const std::shared_ptr<Cq>& cq_ptr : all) {
    Cq& cq = *cq_ptr;
    std::lock_guard<std::mutex> lock(cq.mu);
    const Config& c = cq.config;
    SGB_RETURN_IF_ERROR(table->Append(Row{
        Value::Str(cq.name), Value::Str(cq.table),
        Value::Str(KindName(c.kind)), Value::Str(MetricName(c.metric)),
        Value::Double(c.epsilon),
        Value::Str(c.kind == sql::SimilarityClause::Kind::kAll
                       ? core::ToString(c.on_overlap)
                       : ""),
        Value::Int(c.dop), Value::Str(WindowKindName(c.window.kind)),
        Value::Double(c.window.size), Value::Double(c.window.advance),
        Value::Str(c.window.time_column),
        cq.has_watermark ? Value::Double(cq.watermark) : Value::Null(),
        Value::Int(static_cast<int64_t>(cq.open.size())),
        Value::Int(static_cast<int64_t>(cq.rows_seen)),
        Value::Int(static_cast<int64_t>(cq.late_rows)),
        Value::Int(static_cast<int64_t>(cq.skipped_rows)),
        Value::Int(static_cast<int64_t>(cq.windows_closed)),
        Value::Int(static_cast<int64_t>(cq.delta_events)),
        Value::Int(static_cast<int64_t>(cq.differential_checks)),
        Value::Int(static_cast<int64_t>(cq.plan_rebuilds)),
        Value::Int(static_cast<int64_t>(cq.subscribers.size())),
        Value::Str(cq.definition)}));
  }
  return Status::OK();
}

void RegisterContinuousSystemTable(
    Catalog* catalog, std::shared_ptr<ContinuousQueryManager> manager) {
  catalog->RegisterProvider(
      "system.continuous_queries", ContinuousQueriesSchema(),
      [manager](const Catalog&, Table* table) {
        return manager->SystemRows(table);
      });
}

}  // namespace sgb::engine
