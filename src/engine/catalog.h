#ifndef SGB_ENGINE_CATALOG_H_
#define SGB_ENGINE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/append_table.h"
#include "engine/table.h"
#include "engine/table_source.h"
#include "stats/table_stats.h"

namespace sgb::engine {

/// Name -> TableSource registry; the planner resolves FROM items against
/// it. Table names are case-insensitive (normalized to lower case).
///
/// One map holds every entry, whatever backs it (TableKind):
///  * *stored* tables — immutable TablePtr snapshots (Register);
///  * *append-only* tables — mutable AppendOnlyTable instances created by
///    CREATE TABLE and fed by INSERT;
///  * *paged* tables — disk-backed storage::PagedTable instances owned by
///    the StorageEngine of a disk-backed Database (docs/STORAGE.md), which
///    mirrors its DDL here through RegisterSource;
///  * *virtual* tables — a registered provider materializes a fresh
///    snapshot each time the source is pinned (the system.* introspection
///    tables are served this way).
/// Readers pin the source Find returns and stream it through a cursor.
///
/// Thread safety: every method may be called concurrently from any thread
/// (the server's sessions plan, create, and drop tables in parallel). The
/// registry is guarded by a shared mutex; provider callbacks run when a
/// source is pinned, never under the lock, so a provider may re-enter the
/// catalog (system.tables enumerates it). `version()` increments on every
/// DDL mutation — plan caches use it to invalidate stale plans.
class Catalog {
 public:
  /// Fills one snapshot of a virtual table into `out`, which arrives empty
  /// with the registered schema. Receives the catalog so providers like
  /// system.tables can enumerate it.
  using TableProviderFn =
      std::function<Status(const Catalog& catalog, Table* out)>;

  /// Registers or replaces a stored table. Replacing a stored or
  /// append-only table drops its statistics; a paged or virtual table of
  /// that name cannot be replaced (InvalidArgument).
  Status Register(const std::string& name, TablePtr table);

  /// Registers or replaces a virtual table of `schema`.
  void RegisterProvider(const std::string& name, Schema schema,
                        TableProviderFn provider);

  /// Creates an empty append-only table. AlreadyExists surfaces as
  /// InvalidArgument unless `if_not_exists`. Const: SQL DDL arrives
  /// through the const Database::Query path; the registry state lives
  /// behind rep_ and is internally synchronized.
  Status CreateAppendable(const std::string& name, Schema schema,
                          bool if_not_exists = false) const;

  /// Mirrors a table owned elsewhere — a StorageEngine's paged table — into
  /// the catalog (disk-backed DDL path). InvalidArgument when the name is
  /// taken.
  Status RegisterSource(const std::string& name,
                        std::shared_ptr<const TableSource> source) const;

  /// Drops a non-virtual table (open scans keep the dropped storage alive
  /// until they finish). Virtual tables cannot be dropped; a missing name
  /// is NotFound unless `if_exists`.
  Status Drop(const std::string& name, bool if_exists = false) const;

  /// The source registered under `name`; NotFound when there is none. Scans
  /// and ANALYZE pin it and stream the snapshot.
  Result<TableSourcePtr> Find(const std::string& name) const;

  /// The append-only table registered under `name`, or null — the writers'
  /// accessor (INSERT, CREATE CONTINUOUS QUERY).
  AppendTablePtr FindAppendable(const std::string& name) const;

  /// Every registered name, sorted.
  std::vector<std::string> TableNames() const;

  /// Statistics lifecycle. Stats are immutable shared snapshots keyed by
  /// table name; ANALYZE swaps in a fresh snapshot and bumps version() so
  /// session plan caches re-plan against the new statistics. Const for the
  /// same reason as CreateAppendable: internally synchronized state reached
  /// through the const query path.
  void SetStats(const std::string& name, stats::TableStatsPtr s) const;

  /// Stats for `name`, or null when the table was never analyzed.
  stats::TableStatsPtr GetStats(const std::string& name) const;

  /// Incremental refresh: adds `delta` to the stored stats' live row count
  /// (INSERT path; no-op when the table has no stats). Bumps version() —
  /// invalidating cached plans — only once the cumulative growth since the
  /// last bump reaches 10% of the analyzed row count, so insert-heavy
  /// workloads keep their plan cache. Returns whether a bump happened.
  bool AddStatsRowDelta(const std::string& name, uint64_t delta) const;

  /// Names of tables with statistics, sorted.
  std::vector<std::string> StatsNames() const;

  /// Monotone DDL counter: bumped by Register/RegisterProvider/
  /// CreateAppendable/RegisterSource/Drop, by SetStats (ANALYZE), and by
  /// AddStatsRowDelta when growth crosses its refresh threshold. A cached
  /// plan built at version v is safe to reuse while version() == v.
  uint64_t version() const {
    return rep_->version.load(std::memory_order_acquire);
  }

  Catalog() : rep_(std::make_unique<Rep>()) { rep_->owner = this; }
  Catalog(Catalog&& other) noexcept { *this = std::move(other); }
  Catalog& operator=(Catalog&& other) noexcept {
    rep_ = std::move(other.rep_);
    if (rep_ != nullptr) rep_->owner = this;
    return *this;
  }

 private:
  // Mutexes and atomics are not movable; the state lives behind a pointer
  // so Database (which embeds a Catalog) can be returned by value.
  struct StatsEntry {
    stats::TableStatsPtr stats;
    uint64_t rows_at_bump = 0;  ///< live row count at the last version bump
  };

  /// A provider-backed entry (catalog.cc).
  class VirtualTable;

  struct Rep {
    mutable std::shared_mutex mu;
    std::map<std::string, std::shared_ptr<const TableSource>> entries;
    std::map<std::string, StatsEntry> stats;
    std::atomic<uint64_t> version{0};
    /// The Catalog that owns this state now (moves rebind it): providers
    /// receive it.
    const Catalog* owner = nullptr;
  };

  void BumpVersion() const {
    rep_->version.fetch_add(1, std::memory_order_acq_rel);
  }

  std::unique_ptr<Rep> rep_;
};

}  // namespace sgb::engine

#endif  // SGB_ENGINE_CATALOG_H_
