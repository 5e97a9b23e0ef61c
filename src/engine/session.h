#ifndef SGB_ENGINE_SESSION_H_
#define SGB_ENGINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "engine/operators.h"
#include "sql/planner.h"

namespace sgb::engine {

/// What Database does when a query's estimated footprint does not fit the
/// engine headroom at plan time (docs/ROBUSTNESS.md "Admission control").
enum class AdmissionMode {
  kOff,    ///< admit everything (the historical behavior)
  kQueue,  ///< wait until enough admitted queries finish
  kShed,   ///< fail fast with ResourceExhausted
};

/// The session-scoped governance knobs behind `SET` (docs/SERVER.md
/// "Sessions"). Every statement executes under one immutable snapshot of
/// these, taken when it starts — a concurrent SET applies from the next
/// statement on.
struct SessionGovernance {
  int64_t timeout_ms = 0;            ///< 0 = no deadline
  size_t memory_budget_bytes = 0;    ///< 0 = unlimited
  bool spill_enabled = false;
  std::string spill_directory;       ///< empty = environment default
  AdmissionMode admission = AdmissionMode::kOff;
  size_t admission_budget_bytes = 0;  ///< 0 = engine-global limit
  bool trace_enabled = false;         ///< SET trace = 1
  int64_t slow_query_micros = 0;      ///< SET slow_query_micros = n
};

/// A re-executable plan checked in and out of the session plan cache, plus
/// the metadata the query log wants without replanning.
struct CachedPlan {
  OperatorPtr plan;
  uint64_t catalog_version = 0;  ///< valid while Catalog::version() matches
  std::string tier = "none";
  int64_t dop = 0;
  int64_t est_rows = 0;       ///< cost-model row estimate (0 = no stats)
  size_t est_bytes = 0;       ///< cost-model footprint estimate
  std::string strategy;       ///< chosen group-by strategy / SGB tier detail
};

class Session;

/// The live sessions of one Database, keyed by id. Sessions register in
/// their constructor and deregister in their destructor; system.sessions
/// snapshots the registry. Behind a shared_ptr so both the Database and
/// the provider closure can outlive each other safely.
class SessionRegistry {
 public:
  /// Visits every live session in id order under the registry lock; `fn`
  /// must not create or destroy sessions.
  void ForEach(const std::function<void(const Session&)>& fn) const;

  size_t size() const;

 private:
  friend class Session;

  uint64_t Add(Session* session);
  void Remove(uint64_t id);

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Session*> sessions_;
};

/// Per-session state of the multi-session front end (docs/SERVER.md): the
/// governance knobs SET adjusts, the planner defaults, a small LRU plan
/// cache keyed by normalized SQL, named prepared statements, the set of
/// queries this session is executing right now (for targeted cancellation
/// when its connection drops), and lifetime counters for system.sessions.
///
/// Sessions are created through Database::CreateSession() and execute via
/// Database::Query(session, sql). All methods are thread-safe: the server
/// runs one thread per connection, but cancellation, system.sessions
/// snapshots, and the legacy shared default session cross threads.
class Session {
 public:
  static constexpr size_t kPlanCacheCapacity = 32;

  Session(std::shared_ptr<SessionRegistry> registry, std::string peer);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }
  const std::string& peer() const { return peer_; }

  // ---- Governance -------------------------------------------------------

  /// One consistent view of the knobs; statements snapshot once at start.
  SessionGovernance GovernanceSnapshot() const;
  sql::PlannerOptions PlannerOptionsSnapshot() const;

  void set_timeout_ms(int64_t ms);
  int64_t timeout_ms() const;
  void set_memory_budget_bytes(size_t bytes);
  size_t memory_budget_bytes() const;
  void set_spill_enabled(bool enabled);
  bool spill_enabled() const;
  void set_spill_directory(std::string dir);
  std::string spill_directory() const;
  void set_admission_mode(AdmissionMode mode);
  AdmissionMode admission_mode() const;
  void set_admission_budget_bytes(size_t bytes);
  size_t admission_budget_bytes() const;
  void set_trace_enabled(bool enabled);
  bool trace_enabled() const;
  void set_slow_query_micros(int64_t micros);
  int64_t slow_query_micros() const;
  void set_default_sgb_dop(std::optional<int> dop);
  std::optional<int> default_sgb_dop() const;
  void set_sgb_tier(sql::TierPolicy policy);
  sql::TierPolicy sgb_tier() const;
  void set_agg_strategy(sql::AggStrategy strategy);
  sql::AggStrategy agg_strategy() const;

  // ---- Plan cache -------------------------------------------------------

  /// Cache key: SQL with whitespace runs collapsed to single spaces,
  /// trimmed, and case-folded outside single-quoted strings.
  static std::string NormalizeSql(const std::string& sql);

  /// Checks a plan *out* of the cache (removing it) when one is present
  /// and was built at `catalog_version` — two threads can never execute
  /// the same operator tree. Counts a hit or miss either way.
  std::optional<CachedPlan> TakeCachedPlan(const std::string& key,
                                           uint64_t catalog_version);

  /// Checks a plan back in (or inserts a fresh one) at LRU front, evicting
  /// beyond kPlanCacheCapacity.
  void StoreCachedPlan(const std::string& key, CachedPlan plan);

  size_t plan_cache_size() const;

  // ---- Prepared statements ----------------------------------------------

  /// Binds `name` to a SQL text (replacing any previous binding). The
  /// Database validates the text before defining.
  void DefinePrepared(const std::string& name, const std::string& sql);

  /// NotFound when `name` was never prepared on this session.
  Result<std::string> LookupPrepared(const std::string& name) const;

  size_t prepared_count() const;

  // ---- Active queries / cancellation -------------------------------------

  void RegisterContext(QueryContext* ctx);
  void UnregisterContext(QueryContext* ctx);

  /// Cooperatively cancels the queries this session is executing right now
  /// (the server calls this when the session's connection drops mid-query).
  /// Other sessions are untouched.
  void CancelActive();

  size_t active_queries() const;

  // ---- Counters (system.sessions) ---------------------------------------

  void RecordStatement(bool ok, int64_t rows_out) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) errors_.fetch_add(1, std::memory_order_relaxed);
    if (rows_out > 0) {
      rows_returned_.fetch_add(static_cast<uint64_t>(rows_out),
                               std::memory_order_relaxed);
    }
  }

  uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  uint64_t rows_returned() const {
    return rows_returned_.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

 private:
  using CacheList = std::list<std::pair<std::string, CachedPlan>>;

  /// Drops every cached plan (callers hold mu_). Planner-affecting knobs
  /// (sgb_tier, agg_strategy, parallel, memory budget, spill) call this so
  /// a SET is never shadowed by a plan built under the old options.
  void InvalidateCachedPlansLocked();

  std::shared_ptr<SessionRegistry> registry_;
  std::string peer_;
  uint64_t id_ = 0;

  mutable std::mutex mu_;  ///< governance, planner options, prepared, cache
  SessionGovernance governance_;
  sql::PlannerOptions planner_options_;
  std::map<std::string, std::string> prepared_;
  CacheList cache_lru_;  ///< most recently used first
  std::unordered_map<std::string, CacheList::iterator> cache_index_;

  mutable std::mutex active_mu_;
  std::vector<QueryContext*> active_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> rows_returned_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

using SessionPtr = std::shared_ptr<Session>;

}  // namespace sgb::engine

#endif  // SGB_ENGINE_SESSION_H_
