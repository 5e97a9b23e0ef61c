#ifndef SGB_COMMON_QUERY_CONTEXT_H_
#define SGB_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace sgb {

namespace obs {
class QueryTrace;
}  // namespace obs

/// Out-of-core execution settings carried by the QueryContext. Disabled by
/// default: a budget breach then fails with ResourceExhausted exactly as
/// before. When enabled (SET spill = 1), the blocking operators spill to
/// temp files under `directory` instead, repartitioning recursively with
/// `fanout`-way fan-out down to at most `max_depth` levels before giving
/// up with an honest ResourceExhausted (docs/ROBUSTNESS.md).
struct SpillConfig {
  bool enabled = false;
  std::string directory;  ///< empty = SpillFile::SpillDirectory()
  size_t fanout = 8;
  int max_depth = 6;
};

/// Per-execution governance state threaded through the operator tree and
/// into the SGB cores: a cooperative cancel flag, an optional wall-clock
/// deadline, and a per-query MemoryTracker parented to the engine-global
/// one. One QueryContext lives for exactly one execution of one plan.
///
/// Checking is cooperative and coarse-grained: the instrumented operator
/// entry points test the context at batch granularity (every NextBatch),
/// and the SGB cores test it at morsel/point-stride granularity inside
/// ParallelFor workers. A check that fails surfaces as Status::Cancelled /
/// DeadlineExceeded; memory charges past the budget surface as
/// Status::ResourceExhausted.
///
/// Thread safety: Cancel() and every Check/Charge/Release may be called
/// from any thread. The deadline and budget are configured before execution
/// starts (by Database::Query) and are read-only afterwards.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  explicit QueryContext(size_t memory_budget_bytes = 0)
      : memory_("query", &MemoryTracker::EngineGlobal(),
                memory_budget_bytes) {}

  /// Flags the query for cooperative cancellation; the running plan fails
  /// with Status::Cancelled at its next check.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Sets the deadline `timeout_ms` from now. Call before execution starts.
  void SetTimeout(int64_t timeout_ms) {
    deadline_ = Clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  bool has_deadline() const { return deadline_.has_value(); }

  /// OK, or the governance failure the query should abort with.
  Status CheckAbort() const {
    if (cancelled()) {
      return Status::Cancelled("query cancelled");
    }
    if (deadline_.has_value() && Clock::now() > *deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  MemoryTracker& memory() { return memory_; }
  const MemoryTracker& memory() const { return memory_; }

  /// Configured by Database::Query before execution starts.
  void set_spill(SpillConfig config) { spill_ = std::move(config); }
  const SpillConfig& spill() const { return spill_; }

  /// Operators record each spill event (one partitioning pass or sorted
  /// run written) here; Database aggregates the totals into the
  /// query.spilled metric and the EXPLAIN ANALYZE `spilled=` line.
  void AddSpill(uint64_t bytes) {
    spill_events_.fetch_add(1, std::memory_order_relaxed);
    spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  uint64_t spill_events() const {
    return spill_events_.load(std::memory_order_relaxed);
  }
  uint64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }

  /// Span sink for this execution (null = not traced). Set by
  /// Database::Query before execution starts; the SGB cores, spill paths,
  /// and parallel workers record spans through it. QueryTrace is
  /// thread-safe, so workers need no coordination here.
  void set_trace(obs::QueryTrace* trace) { trace_ = trace; }
  obs::QueryTrace* trace() const { return trace_; }

 private:
  std::atomic<bool> cancelled_{false};
  std::optional<Clock::time_point> deadline_;
  MemoryTracker memory_;
  SpillConfig spill_;
  std::atomic<uint64_t> spill_events_{0};
  std::atomic<uint64_t> spill_bytes_{0};
  obs::QueryTrace* trace_ = nullptr;
};

/// The abort channel for the bool-returning Volcano interface: governance
/// failures (cancel, deadline, budget) and injected faults raised inside an
/// operator or core throw QueryAbort; Materialize() (and ThreadPool's
/// ParallelFor, which rethrows worker exceptions on the caller) convert it
/// back into the Status the engine API returns. It never escapes
/// Database::Query.
class QueryAbort : public std::exception {
 public:
  explicit QueryAbort(Status status) : status_(std::move(status)) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override {
    return status_.message().c_str();
  }

 private:
  Status status_;
};

/// Throws QueryAbort when `ctx` (nullable) says the query should stop.
inline void ThrowIfAborted(const QueryContext* ctx) {
  if (ctx == nullptr) return;
  Status status = ctx->CheckAbort();
  if (!status.ok()) throw QueryAbort(std::move(status));
}

/// RAII charge against a query's memory tracker; throws QueryAbort when the
/// budget does not cover it. A null context charges nothing.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(QueryContext* ctx, size_t bytes)
      : ctx_(ctx), bytes_(bytes) {
    if (ctx_ == nullptr) return;
    Status status = ctx_->memory().TryConsume(bytes_);
    if (!status.ok()) {
      ctx_ = nullptr;  // nothing to release
      throw QueryAbort(std::move(status));
    }
  }
  ~ScopedMemoryCharge() {
    if (ctx_ != nullptr) ctx_->memory().Release(bytes_);
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

 private:
  QueryContext* ctx_;
  size_t bytes_;
};

}  // namespace sgb

#endif  // SGB_COMMON_QUERY_CONTEXT_H_
