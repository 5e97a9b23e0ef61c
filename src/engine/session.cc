#include "engine/session.h"

#include <algorithm>
#include <cctype>

namespace sgb::engine {

// ---- SessionRegistry ------------------------------------------------------

uint64_t SessionRegistry::Add(Session* session) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  sessions_[id] = session;
  return id;
}

void SessionRegistry::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

void SessionRegistry::ForEach(
    const std::function<void(const Session&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, session] : sessions_) fn(*session);
}

size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

// ---- Session --------------------------------------------------------------

Session::Session(std::shared_ptr<SessionRegistry> registry, std::string peer)
    : registry_(std::move(registry)), peer_(std::move(peer)) {
  id_ = registry_->Add(this);
}

Session::~Session() { registry_->Remove(id_); }

SessionGovernance Session::GovernanceSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_;
}

sql::PlannerOptions Session::PlannerOptionsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  sql::PlannerOptions options = planner_options_;
  // Governance knobs the cost model reads: the memory headroom for
  // hash-vs-sort regime rules, and whether spilling rules out the
  // (non-spillable) sort aggregate.
  options.memory_budget_bytes = governance_.memory_budget_bytes;
  options.spill_enabled = governance_.spill_enabled;
  return options;
}

void Session::set_timeout_ms(int64_t ms) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.timeout_ms = ms;
}
int64_t Session::timeout_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.timeout_ms;
}
void Session::set_memory_budget_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.memory_budget_bytes = bytes;
  InvalidateCachedPlansLocked();  // the cost model reads the budget
}
size_t Session::memory_budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.memory_budget_bytes;
}
void Session::set_spill_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.spill_enabled = enabled;
  InvalidateCachedPlansLocked();  // rules the sort aggregate in or out
}
bool Session::spill_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.spill_enabled;
}
void Session::set_spill_directory(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.spill_directory = std::move(dir);
}
std::string Session::spill_directory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.spill_directory;
}
void Session::set_admission_mode(AdmissionMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.admission = mode;
}
AdmissionMode Session::admission_mode() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.admission;
}
void Session::set_admission_budget_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.admission_budget_bytes = bytes;
}
size_t Session::admission_budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.admission_budget_bytes;
}
void Session::set_trace_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.trace_enabled = enabled;
}
bool Session::trace_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.trace_enabled;
}
void Session::set_slow_query_micros(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  governance_.slow_query_micros = micros;
}
int64_t Session::slow_query_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return governance_.slow_query_micros;
}
void Session::set_default_sgb_dop(std::optional<int> dop) {
  std::lock_guard<std::mutex> lock(mu_);
  planner_options_.default_sgb_dop = dop;
  InvalidateCachedPlansLocked();
}
std::optional<int> Session::default_sgb_dop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planner_options_.default_sgb_dop;
}
void Session::set_sgb_tier(sql::TierPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  planner_options_.sgb_tier = policy;
  InvalidateCachedPlansLocked();
}
sql::TierPolicy Session::sgb_tier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planner_options_.sgb_tier;
}
void Session::set_agg_strategy(sql::AggStrategy strategy) {
  std::lock_guard<std::mutex> lock(mu_);
  planner_options_.agg_strategy = strategy;
  InvalidateCachedPlansLocked();
}

void Session::InvalidateCachedPlansLocked() {
  cache_lru_.clear();
  cache_index_.clear();
}
sql::AggStrategy Session::agg_strategy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return planner_options_.agg_strategy;
}

// ---- Plan cache -----------------------------------------------------------

std::string Session::NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (char c : sql) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::optional<CachedPlan> Session::TakeCachedPlan(const std::string& key,
                                                  uint64_t catalog_version) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  CachedPlan plan = std::move(it->second->second);
  cache_lru_.erase(it->second);
  cache_index_.erase(it);
  if (plan.catalog_version != catalog_version) {
    // DDL happened since this plan was built: drop it, replan.
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

void Session::StoreCachedPlan(const std::string& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // A concurrent execution of the same statement already checked a copy
    // back in; keep the newer one.
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
  }
  cache_lru_.emplace_front(key, std::move(plan));
  cache_index_[key] = cache_lru_.begin();
  while (cache_lru_.size() > kPlanCacheCapacity) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

size_t Session::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_lru_.size();
}

// ---- Prepared statements --------------------------------------------------

void Session::DefinePrepared(const std::string& name,
                             const std::string& sql) {
  std::lock_guard<std::mutex> lock(mu_);
  prepared_[name] = sql;
}

Result<std::string> Session::LookupPrepared(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    return Status::NotFound("no prepared statement named '" + name + "'");
  }
  return it->second;
}

size_t Session::prepared_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_.size();
}

// ---- Active queries -------------------------------------------------------

void Session::RegisterContext(QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(active_mu_);
  active_.push_back(ctx);
}

void Session::UnregisterContext(QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(active_mu_);
  active_.erase(std::remove(active_.begin(), active_.end(), ctx),
                active_.end());
}

void Session::CancelActive() {
  std::lock_guard<std::mutex> lock(active_mu_);
  for (QueryContext* ctx : active_) ctx->Cancel();
}

size_t Session::active_queries() const {
  std::lock_guard<std::mutex> lock(active_mu_);
  return active_.size();
}

}  // namespace sgb::engine
