#ifndef SGB_ENGINE_CONTINUOUS_H_
#define SGB_ENGINE_CONTINUOUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/value.h"
#include "sql/ast.h"

namespace sgb {
class QueryContext;  // common/query_context.h
}

namespace sgb::engine {

/// One group-delta row streamed to subscribers when a window closes
/// (docs/STREAMING.md "Delta events"). Per-arrival events carry the
/// arrival's sequence number; the trailing "window_closed" summary row
/// carries point = -1 and the window's final group count.
struct GroupDelta {
  std::string kind;    ///< group_formed | member_added | groups_merged |
                       ///< window_closed
  int64_t point = -1;  ///< arrival sequence number (-1 for the summary row)
  int64_t groups = 0;  ///< prior groups touched; final count on the summary
};

/// Everything a window close emits, delivered to every subscriber of the
/// continuous query as one batch.
struct DeltaBatch {
  std::string query;
  double window_start = 0.0;
  double window_end = 0.0;
  size_t rows = 0;        ///< arrivals grouped in the window
  size_t num_groups = 0;  ///< groups at close (differentially verified)
  size_t eliminated = 0;  ///< ON-OVERLAP ELIMINATE casualties
  std::vector<GroupDelta> deltas;
};

/// Registry and maintenance engine for CREATE CONTINUOUS QUERY
/// (docs/STREAMING.md). Each registered query groups the event-time
/// windows of an append-only table by similarity. The executor forwards
/// every successful INSERT through OnInsert(), which only records each
/// arrival in the windows it lands in. Window close is driven by the
/// watermark (the maximum event time seen): a close runs one batch
/// SgbAll/SgbAny over the window, replays the arrivals in order to derive
/// the per-arrival deltas (core/arrival_replay.h), and cross-checks the
/// two before any delta is published — a mismatch fails the close (and the
/// INSERT that drove it) with Status::Internal.
///
/// Failure semantics: maintenance errors (memory budget, cancellation,
/// injected faults at `continuous.window_close`) propagate as the INSERT's
/// status. The base rows stay appended and the affected window stays open
/// with its arrivals intact, so the next INSERT retries the close and
/// subscribers resume with the correct next delta.
///
/// Thread safety: all methods may be called concurrently; a manager-wide
/// mutex guards the registry and each query has its own mutex, taken in
/// that order. Subscriber callbacks run *outside* both locks.
class ContinuousQueryManager {
 public:
  /// Returns false to unsubscribe (e.g. the connection went away).
  using Subscriber = std::function<bool(const DeltaBatch&)>;

  ContinuousQueryManager();

  /// Registers `stmt` (validated against `catalog`): the SELECT must read
  /// one append-only table, carry DISTANCE-TO-ALL or DISTANCE-TO-ANY over
  /// two numeric columns, and a WINDOW clause with 0 < advance <= size over
  /// a numeric time column. `definition` is the original SQL, surfaced in
  /// system.continuous_queries.
  Status Create(const Catalog& catalog, sql::CreateContinuousStatement stmt,
                std::string definition);

  Status Drop(const std::string& name, bool if_exists);

  /// Maintenance hook, called by the executor after a successful INSERT
  /// into `table` (and after the catalog's stats-refresh bump, so a
  /// version change re-resolves the continuous plan first — observable as
  /// plan_rebuilds). Updates every continuous query over the table and
  /// closes every window the new watermark passes.
  Status OnInsert(const Catalog& catalog, const std::string& table,
                  const std::vector<Row>& rows);

  /// Attaches a subscriber to the named query; every subsequent window
  /// close delivers one DeltaBatch. Returns the subscription id.
  Result<uint64_t> Subscribe(const std::string& name, Subscriber fn);

  /// Detaches a subscription by id (no-op when already gone).
  void Unsubscribe(uint64_t id);

  /// Cooperatively cancels every maintenance operation in flight (the
  /// Database-wide Cancel() fans into this).
  void CancelActive();

  /// Appends one row per registered query to `out` — the
  /// system.continuous_queries surface.
  Status SystemRows(Table* out) const;

  /// The tracker charged by every open window's arrivals ("continuous",
  /// parented to the engine-global tracker).
  const MemoryTracker& memory() const { return memory_; }

 private:
  struct Config;
  struct OpenWindow;
  struct Cq;

  static Status Resolve(const Catalog& catalog,
                        const sql::SelectStatement& select, Config* config);

  /// Closes `window` (erasing it from `cq.open` on success): batch
  /// grouping, arrival replay, differential check, delta batch
  /// construction, counters. Appends the batch to `closed` for post-lock
  /// delivery. Called with cq.mu held.
  Status CloseWindow(Cq& cq, int64_t index, QueryContext* ctx,
                     std::vector<DeltaBatch>* closed);

  void DeliverBatches(Cq& cq, const std::vector<DeltaBatch>& closed);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Cq>> queries_;
  uint64_t next_subscription_id_ = 1;

  MemoryTracker memory_;

  /// Maintenance operations in flight, for CancelActive().
  mutable std::mutex active_mu_;
  std::vector<QueryContext*> active_;
};

/// Registers the system.continuous_queries virtual table.
void RegisterContinuousSystemTable(
    Catalog* catalog, std::shared_ptr<ContinuousQueryManager> manager);

/// The per-arrival identity key a continuous SGB-All close feeds into the
/// JOIN-ANY arbitration (SgbAllOptions::arbitration_keys): a SplitMix64
/// chain over the row's *content* only — never arrival order or
/// window-local position. Combined with the content-defined canonical
/// order (t, x, y) this makes every window close a pure function of the
/// window's row multiset, so shuffled arrivals of the same rows converge
/// to bit-identical groupings. Exposed so differential harnesses can build
/// a from-scratch batch oracle with the exact keys a close uses (exact
/// duplicate rows share a key, which is harmless: swapping identical rows
/// cannot change the result).
uint64_t ArrivalKey(double t, double x, double y);

}  // namespace sgb::engine

#endif  // SGB_ENGINE_CONTINUOUS_H_
