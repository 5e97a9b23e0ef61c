#include "engine/system_tables.h"

#include <utility>

#include "obs/metrics.h"
#include "stats/table_stats.h"
#include "storage/storage_engine.h"

namespace sgb::engine {

namespace {

Schema MetricsSchema() {
  Schema s;
  s.AddColumn(Column{"name", DataType::kString, ""});
  s.AddColumn(Column{"kind", DataType::kString, ""});
  s.AddColumn(Column{"value", DataType::kDouble, ""});
  s.AddColumn(Column{"count", DataType::kInt64, ""});
  s.AddColumn(Column{"sum", DataType::kInt64, ""});
  s.AddColumn(Column{"min", DataType::kInt64, ""});
  s.AddColumn(Column{"max", DataType::kInt64, ""});
  s.AddColumn(Column{"mean", DataType::kDouble, ""});
  s.AddColumn(Column{"p50", DataType::kDouble, ""});
  s.AddColumn(Column{"p90", DataType::kDouble, ""});
  s.AddColumn(Column{"p95", DataType::kDouble, ""});
  s.AddColumn(Column{"p99", DataType::kDouble, ""});
  return s;
}

/// One row per metric: counters first, then gauges, then histograms, each
/// group name-sorted (MetricsSnapshot's maps are ordered), so the listing
/// is stable across runs given the same registered names.
Status MetricsProvider(const Catalog&, Table* table) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  table->Reserve(snap.counters.size() + snap.gauges.size() +
                 snap.histograms.size());
  for (const auto& [name, v] : snap.counters) {
    SGB_RETURN_IF_ERROR(table->Append(
        Row{Value::Str(name), Value::Str("counter"),
            Value::Double(static_cast<double>(v)), Value::Null(),
            Value::Null(), Value::Null(), Value::Null(), Value::Null(),
            Value::Null(), Value::Null(), Value::Null(), Value::Null()}));
  }
  for (const auto& [name, v] : snap.gauges) {
    SGB_RETURN_IF_ERROR(table->Append(
        Row{Value::Str(name), Value::Str("gauge"), Value::Double(v),
            Value::Null(), Value::Null(), Value::Null(), Value::Null(),
            Value::Null(), Value::Null(), Value::Null(), Value::Null(),
            Value::Null()}));
  }
  for (const auto& [name, h] : snap.histograms) {
    SGB_RETURN_IF_ERROR(table->Append(
        Row{Value::Str(name), Value::Str("histogram"), Value::Null(),
            Value::Int(static_cast<int64_t>(h.count)),
            Value::Int(static_cast<int64_t>(h.sum)),
            Value::Int(static_cast<int64_t>(h.min)),
            Value::Int(static_cast<int64_t>(h.max)), Value::Double(h.mean),
            Value::Double(h.p50), Value::Double(h.p90), Value::Double(h.p95),
            Value::Double(h.p99)}));
  }
  return Status::OK();
}

Schema QueryLogSchema() {
  Schema s;
  s.AddColumn(Column{"id", DataType::kInt64, ""});
  s.AddColumn(Column{"session_id", DataType::kInt64, ""});
  s.AddColumn(Column{"query", DataType::kString, ""});
  s.AddColumn(Column{"status", DataType::kString, ""});
  s.AddColumn(Column{"slow", DataType::kInt64, ""});
  s.AddColumn(Column{"admission", DataType::kString, ""});
  s.AddColumn(Column{"queue_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"plan_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"exec_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"wall_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"cpu_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"rows_in", DataType::kInt64, ""});
  s.AddColumn(Column{"rows_out", DataType::kInt64, ""});
  s.AddColumn(Column{"peak_memory_bytes", DataType::kInt64, ""});
  s.AddColumn(Column{"estimated_bytes", DataType::kInt64, ""});
  s.AddColumn(Column{"spill_events", DataType::kInt64, ""});
  s.AddColumn(Column{"spill_bytes", DataType::kInt64, ""});
  s.AddColumn(Column{"dop", DataType::kInt64, ""});
  s.AddColumn(Column{"tier", DataType::kString, ""});
  s.AddColumn(Column{"est_rows", DataType::kInt64, ""});
  s.AddColumn(Column{"strategy", DataType::kString, ""});
  return s;
}

Schema OperatorStatsSchema() {
  Schema s;
  s.AddColumn(Column{"query_id", DataType::kInt64, ""});
  s.AddColumn(Column{"op_index", DataType::kInt64, ""});
  s.AddColumn(Column{"depth", DataType::kInt64, ""});
  s.AddColumn(Column{"operator", DataType::kString, ""});
  s.AddColumn(Column{"rows", DataType::kInt64, ""});
  s.AddColumn(Column{"batches", DataType::kInt64, ""});
  s.AddColumn(Column{"open_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"next_micros", DataType::kInt64, ""});
  s.AddColumn(Column{"peak_memory_bytes", DataType::kInt64, ""});
  return s;
}

Schema TablesSchema() {
  Schema s;
  s.AddColumn(Column{"name", DataType::kString, ""});
  s.AddColumn(Column{"kind", DataType::kString, ""});
  s.AddColumn(Column{"rows", DataType::kInt64, ""});
  s.AddColumn(Column{"columns", DataType::kInt64, ""});
  s.AddColumn(Column{"bytes", DataType::kInt64, ""});
  return s;
}

/// Sizes come from a fresh pin (no rows are copied) and the source's bytes;
/// virtual tables get NULL sizes (pinning them would recurse into
/// providers — including this one).
Status TablesProvider(const Catalog& catalog, Table* table) {
  for (const std::string& name : catalog.TableNames()) {
    auto source = catalog.Find(name);
    if (!source.ok()) continue;  // dropped since TableNames()
    const TableSource& s = *source.value();
    Row row{Value::Str(name), Value::Str(std::string(TableKindName(s.kind()))),
            Value::Null(), Value::Null(), Value::Null()};
    if (s.kind() != TableKind::kSystem) {
      auto pin = s.Pin();
      if (!pin.ok()) return pin.status();
      row[2] = Value::Int(static_cast<int64_t>(pin.value()->rows()));
      row[3] = Value::Int(static_cast<int64_t>(s.schema().size()));
      row[4] = Value::Int(static_cast<int64_t>(s.bytes()));
    }
    SGB_RETURN_IF_ERROR(table->Append(std::move(row)));
  }
  return Status::OK();
}

Schema SessionsSchema() {
  Schema s;
  s.AddColumn(Column{"id", DataType::kInt64, ""});
  s.AddColumn(Column{"peer", DataType::kString, ""});
  s.AddColumn(Column{"state", DataType::kString, ""});
  s.AddColumn(Column{"queries", DataType::kInt64, ""});
  s.AddColumn(Column{"errors", DataType::kInt64, ""});
  s.AddColumn(Column{"rows_returned", DataType::kInt64, ""});
  s.AddColumn(Column{"plan_cache_hits", DataType::kInt64, ""});
  s.AddColumn(Column{"plan_cache_misses", DataType::kInt64, ""});
  s.AddColumn(Column{"prepared", DataType::kInt64, ""});
  s.AddColumn(Column{"timeout_ms", DataType::kInt64, ""});
  s.AddColumn(Column{"memory_budget_bytes", DataType::kInt64, ""});
  s.AddColumn(Column{"spill", DataType::kInt64, ""});
  s.AddColumn(Column{"trace", DataType::kInt64, ""});
  s.AddColumn(Column{"parallel", DataType::kInt64, ""});
  s.AddColumn(Column{"admission", DataType::kString, ""});
  return s;
}

Schema StatsSchema() {
  Schema s;
  s.AddColumn(Column{"table_name", DataType::kString, ""});
  s.AddColumn(Column{"column_name", DataType::kString, ""});
  s.AddColumn(Column{"row_count", DataType::kInt64, ""});
  s.AddColumn(Column{"analyzed_rows", DataType::kInt64, ""});
  s.AddColumn(Column{"avg_row_bytes", DataType::kInt64, ""});
  s.AddColumn(Column{"null_count", DataType::kInt64, ""});
  s.AddColumn(Column{"min", DataType::kDouble, ""});
  s.AddColumn(Column{"max", DataType::kDouble, ""});
  s.AddColumn(Column{"ndv", DataType::kInt64, ""});
  s.AddColumn(Column{"grid_axis", DataType::kInt64, ""});
  s.AddColumn(Column{"point_ndv", DataType::kInt64, ""});
  s.AddColumn(Column{"grid_cells", DataType::kInt64, ""});
  return s;
}

/// One row per (analyzed table, column). Table-level figures — row counts,
/// duplicate-point NDV, occupied histogram cells — repeat on every row of
/// their table; `grid_axis` is 1/2 on the histogram's x/y column, NULL on
/// the rest. Tables never ANALYZEd do not appear.
Status StatsProvider(const Catalog& catalog, Table* table) {
  for (const std::string& name : catalog.StatsNames()) {
    const stats::TableStatsPtr ts = catalog.GetStats(name);
    if (ts == nullptr) continue;
    const Value point_ndv = ts->grid.has_value()
                                ? Value::Int(static_cast<int64_t>(ts->point_ndv))
                                : Value::Null();
    const Value grid_cells =
        ts->grid.has_value()
            ? Value::Int(static_cast<int64_t>(ts->grid->OccupiedCells()))
            : Value::Null();
    for (size_t i = 0; i < ts->columns.size(); ++i) {
      const stats::ColumnStats& c = ts->columns[i];
      Value axis = Value::Null();
      if (static_cast<int>(i) == ts->grid_col_x) axis = Value::Int(1);
      if (static_cast<int>(i) == ts->grid_col_y) axis = Value::Int(2);
      SGB_RETURN_IF_ERROR(table->Append(
          Row{Value::Str(ts->table), Value::Str(c.name),
              Value::Int(static_cast<int64_t>(ts->row_count)),
              Value::Int(static_cast<int64_t>(ts->analyzed_rows)),
              Value::Int(static_cast<int64_t>(ts->avg_row_bytes)),
              Value::Int(static_cast<int64_t>(c.null_count)),
              c.has_range ? Value::Double(c.min) : Value::Null(),
              c.has_range ? Value::Double(c.max) : Value::Null(),
              Value::Int(static_cast<int64_t>(c.ndv)), axis, point_ndv,
              grid_cells}));
    }
  }
  return Status::OK();
}

const char* AdmissionModeName(AdmissionMode mode) {
  switch (mode) {
    case AdmissionMode::kQueue:
      return "queue";
    case AdmissionMode::kShed:
      return "shed";
    default:
      return "off";
  }
}

}  // namespace

void RegisterSystemTables(Catalog* catalog,
                          std::shared_ptr<obs::QueryLog> query_log,
                          std::shared_ptr<SessionRegistry> sessions) {
  catalog->RegisterProvider("system.metrics", MetricsSchema(),
                            MetricsProvider);

  catalog->RegisterProvider(
      "system.query_log", QueryLogSchema(),
      [query_log](const Catalog&, Table* table) {
        const auto entries = query_log->Entries();
        table->Reserve(entries.size());
        for (const obs::QueryLogEntry& e : entries) {
          SGB_RETURN_IF_ERROR(table->Append(
              Row{Value::Int(static_cast<int64_t>(e.id)),
                  Value::Int(e.session_id), Value::Str(e.text),
                  Value::Str(e.status), Value::Int(e.slow ? 1 : 0),
                  Value::Str(e.admission), Value::Int(e.queue_micros),
                  Value::Int(e.plan_micros), Value::Int(e.exec_micros),
                  Value::Int(e.wall_micros), Value::Int(e.cpu_micros),
                  Value::Int(e.rows_in), Value::Int(e.rows_out),
                  Value::Int(e.peak_memory_bytes),
                  Value::Int(e.estimated_bytes), Value::Int(e.spill_events),
                  Value::Int(e.spill_bytes), Value::Int(e.dop),
                  Value::Str(e.tier), Value::Int(e.est_rows),
                  Value::Str(e.strategy)}));
        }
        return Status::OK();
      });

  catalog->RegisterProvider(
      "system.operator_stats", OperatorStatsSchema(),
      [query_log](const Catalog&, Table* table) {
        const auto ops = query_log->OperatorStats();
        table->Reserve(ops.size());
        for (const obs::OperatorStatsEntry& o : ops) {
          SGB_RETURN_IF_ERROR(table->Append(
              Row{Value::Int(static_cast<int64_t>(o.query_id)),
                  Value::Int(o.op_index), Value::Int(o.depth),
                  Value::Str(o.op), Value::Int(o.rows), Value::Int(o.batches),
                  Value::Int(o.open_micros), Value::Int(o.next_micros),
                  Value::Int(o.peak_memory_bytes)}));
        }
        return Status::OK();
      });

  catalog->RegisterProvider("system.tables", TablesSchema(), TablesProvider);

  catalog->RegisterProvider("system.stats", StatsSchema(), StatsProvider);

  catalog->RegisterProvider(
      "system.sessions", SessionsSchema(),
      [sessions](const Catalog&, Table* table) {
        Status status = Status::OK();
        sessions->ForEach([&](const Session& s) {
          if (!status.ok()) return;
          status = table->Append(
              Row{Value::Int(static_cast<int64_t>(s.id())),
                  Value::Str(s.peer()),
                  Value::Str(s.active_queries() > 0 ? "active" : "idle"),
                  Value::Int(static_cast<int64_t>(s.queries())),
                  Value::Int(static_cast<int64_t>(s.errors())),
                  Value::Int(static_cast<int64_t>(s.rows_returned())),
                  Value::Int(static_cast<int64_t>(s.plan_cache_hits())),
                  Value::Int(static_cast<int64_t>(s.plan_cache_misses())),
                  Value::Int(static_cast<int64_t>(s.prepared_count())),
                  Value::Int(s.timeout_ms()),
                  Value::Int(static_cast<int64_t>(s.memory_budget_bytes())),
                  Value::Int(s.spill_enabled() ? 1 : 0),
                  Value::Int(s.trace_enabled() ? 1 : 0),
                  s.default_sgb_dop().has_value()
                      ? Value::Int(*s.default_sgb_dop())
                      : Value::Null(),
                  Value::Str(AdmissionModeName(s.admission_mode()))});
        });
        return status;
      });
}

void RegisterStorageSystemTables(
    Catalog* catalog, std::shared_ptr<storage::StorageEngine> storage) {
  Schema schema;
  schema.AddColumn(Column{"hits", DataType::kInt64, ""});
  schema.AddColumn(Column{"misses", DataType::kInt64, ""});
  schema.AddColumn(Column{"evictions", DataType::kInt64, ""});
  schema.AddColumn(Column{"writebacks", DataType::kInt64, ""});
  schema.AddColumn(Column{"capacity_pages", DataType::kInt64, ""});
  schema.AddColumn(Column{"resident_pages", DataType::kInt64, ""});
  schema.AddColumn(Column{"dirty_pages", DataType::kInt64, ""});
  schema.AddColumn(Column{"pinned_pages", DataType::kInt64, ""});
  schema.AddColumn(Column{"page_size", DataType::kInt64, ""});
  schema.AddColumn(Column{"policy", DataType::kString, ""});
  schema.AddColumn(Column{"checkpoints", DataType::kInt64, ""});
  schema.AddColumn(Column{"wal_bytes", DataType::kInt64, ""});
  schema.AddColumn(Column{"wal_replayed", DataType::kInt64, ""});
  schema.AddColumn(Column{"crashed", DataType::kInt64, ""});
  catalog->RegisterProvider(
      "system.buffer_pool", std::move(schema),
      [storage](const Catalog&, Table* table) {
        const storage::BufferPoolStats bp = storage->buffer_stats();
        const storage::StorageStats st = storage->stats();
        SGB_RETURN_IF_ERROR(table->Append(
            Row{Value::Int(static_cast<int64_t>(bp.hits)),
                Value::Int(static_cast<int64_t>(bp.misses)),
                Value::Int(static_cast<int64_t>(bp.evictions)),
                Value::Int(static_cast<int64_t>(bp.writebacks)),
                Value::Int(static_cast<int64_t>(bp.capacity_pages)),
                Value::Int(static_cast<int64_t>(bp.resident_pages)),
                Value::Int(static_cast<int64_t>(bp.dirty_pages)),
                Value::Int(static_cast<int64_t>(bp.pinned_pages)),
                Value::Int(static_cast<int64_t>(bp.page_size)),
                Value::Str(bp.policy),
                Value::Int(static_cast<int64_t>(st.checkpoints)),
                Value::Int(static_cast<int64_t>(st.wal_bytes)),
                Value::Int(static_cast<int64_t>(st.wal_replayed_records)),
                Value::Int(st.crashed ? 1 : 0)}));
        return Status::OK();
      });
}

}  // namespace sgb::engine
