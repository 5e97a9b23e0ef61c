// TpchPaged: the paper's Table-2 statements over a disk-backed database
// whose buffer pool holds the small tables but not orders or lineitem.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "components.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "workload/queries.h"

namespace perfbench {

using sgb::engine::Table;
using sgb::engine::Value;

namespace {

std::string Literal(const Value& v) {
  switch (v.type()) {
    case sgb::engine::DataType::kInt64:
      return std::to_string(v.AsInt());
    case sgb::engine::DataType::kDouble:
      return ExactDouble(v.AsDouble());
    case sgb::engine::DataType::kString:
      return "'" + v.AsString() + "'";
    default:
      return "NULL";
  }
}

std::string CreateSql(const std::string& name, const sgb::engine::Schema& s) {
  std::string sql = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < s.size(); ++i) {
    const auto& c = s.column(i);
    if (i > 0) sql += ", ";
    sql += c.name + " ";
    sql += c.type == sgb::engine::DataType::kInt64    ? "INT"
           : c.type == sgb::engine::DataType::kDouble ? "DOUBLE"
                                                      : "TEXT";
  }
  return sql + ")";
}

std::string InsertSql(const std::string& name,
                      const std::vector<sgb::engine::Row>& rows, size_t begin,
                      size_t end) {
  std::string sql = "INSERT INTO " + name + " VALUES ";
  for (size_t r = begin; r < end; ++r) {
    if (r > begin) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) sql += ", ";
      sql += Literal(rows[r][c]);
    }
    sql += ")";
  }
  return sql;
}

double D(const Value& v) { return Number(v); }

/// Multiset of sorted id lists of a result column.
std::multiset<std::vector<int64_t>> IdLists(const Table& t, size_t column,
                                            bool* ok) {
  std::multiset<std::vector<int64_t>> out;
  std::vector<int64_t> ids;
  *ok = true;
  for (const auto& row : t.rows()) {
    if (column >= row.size() ||
        row[column].type() != sgb::engine::DataType::kString ||
        !ParseIdList(row[column].AsString(), &ids)) {
      *ok = false;
      return out;
    }
    std::sort(ids.begin(), ids.end());
    out.insert(ids);
  }
  return out;
}

/// The Table-2 families' aggregate columns, recomputed from the derived
/// points of each output group.
enum class Family { kBuying, kParts, kSupplier };

/// `all_eps` > 0 marks an SGB-All statement that reports counts and sums
/// only: each group's members are pairwise within ε, so all of them lie
/// within ε of the group's centroid, and at least `count` derived points
/// must.
std::string CheckAggregates(const Table& t, const std::vector<Vec3>& pts,
                            const std::unordered_map<int64_t, uint32_t>& index,
                            Family family, size_t id_column, double all_eps) {
  if (family == Family::kParts && all_eps > 0) {
    const double r = all_eps * (1.0 + 1e-6);
    for (const auto& row : t.rows()) {
      const double count = D(row[0]);
      const Vec3 centroid = {D(row[1]) / count, D(row[2]) / count, 0};
      double near = 0;
      for (const Vec3& p : pts) near += Within(centroid, p, 2, Dist::kL2, r);
      if (near < count) return "a group is wider than eps around its centroid";
    }
  }
  if (family == Family::kParts) {
    // count(*), sum(tprof), sum(stime): the sums over all groups cover
    // every derived point once.
    double tprof = 0, stime = 0, got_tprof = 0, got_stime = 0;
    for (const Vec3& p : pts) {
      tprof += p[0];
      stime += p[1];
    }
    for (const auto& row : t.rows()) {
      got_tprof += D(row[1]);
      got_stime += D(row[2]);
    }
    return Close(tprof, got_tprof, 1e-7) && Close(stime, got_stime, 1e-7)
               ? ""
               : "sum(tprof) or sum(stime) differs";
  }
  std::vector<int64_t> ids;
  for (const auto& row : t.rows()) {
    if (!ParseIdList(row[id_column].AsString(), &ids) || ids.empty()) {
      return "unreadable array_agg column";
    }
    std::vector<const Vec3*> members;
    for (int64_t id : ids) {
      auto it = index.find(id);
      if (it == index.end()) return "unknown id in array_agg";
      members.push_back(&pts[it->second]);
    }
    if (family == Family::kBuying) {
      // max(ab), min(tp), max(tp), avg(ab)
      double max_ab = -1e300, min_tp = 1e300, max_tp = -1e300, sum_ab = 0;
      for (const Vec3* p : members) {
        max_ab = std::max(max_ab, (*p)[0]);
        min_tp = std::min(min_tp, (*p)[1]);
        max_tp = std::max(max_tp, (*p)[1]);
        sum_ab += (*p)[0];
      }
      if (!Close(D(row[0]), max_ab) || !Close(D(row[1]), min_tp) ||
          !Close(D(row[2]), max_tp) ||
          !Close(D(row[3]), sum_ab / static_cast<double>(members.size()))) {
        return "an aggregate of a group differs";
      }
    } else {
      // sum(trevenue), sum(acctbal)
      double rev = 0, bal = 0;
      for (const Vec3* p : members) {
        rev += (*p)[0];
        bal += (*p)[1];
      }
      if (!Close(D(row[1]), rev) || !Close(D(row[2]), bal)) {
        return "an aggregate of a group differs";
      }
    }
  }
  return "";
}

constexpr size_t kLoadRowsPerInsert = 500;
constexpr double kFilterDiscount = 0.05;
constexpr int64_t kFilterShipdays = 9000;  // 1994-08-23

}  // namespace

bool TpchPaged::Exec(sgb::engine::Database& db, const std::string& sql) {
  auto r = db.Query(sql);
  if (!r.ok()) {
    env_.outcome->Failed(sql.substr(0, 40) + ": " + r.status().ToString());
    return false;
  }
  return true;
}

size_t TpchPaged::table_bytes(const std::string& t) const {
  auto it = bytes_.find(t);
  return it == bytes_.end() ? 0 : it->second;
}

void TpchPaged::Setup() {
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  sgb::workload::TpchConfig config;
  config.scale_factor = size_.scale_factor;
  config.seed = Mix(env_.seed, 20);
  data_ = sgb::workload::GenerateTpch(config);

  const std::vector<std::pair<std::string, const Table*>> tables = {
      {"customer", data_.customer.get()}, {"orders", data_.orders.get()},
      {"lineitem", data_.lineitem.get()}, {"partsupp", data_.partsupp.get()},
      {"supplier", data_.supplier.get()}};
  {
    sgb::storage::StorageOptions load_options;
    load_options.buffer_pool_bytes = 64u << 20;
    auto opened = sgb::engine::Database::Open(dir_, load_options);
    if (!opened.ok()) {
      env_.outcome->Failed("open: " + opened.status().ToString());
      return;
    }
    sgb::engine::Database db = std::move(opened).value();
    for (const auto& [name, table] : tables) {
      if (!Exec(db, CreateSql(name, table->schema()))) return;
      for (size_t b = 0; b < table->NumRows(); b += kLoadRowsPerInsert) {
        const size_t e = std::min(table->NumRows(), b + kLoadRowsPerInsert);
        if (!Exec(db, InsertSql(name, table->rows(), b, e))) return;
      }
    }
    if (!Exec(db, CreateSql("lineitem_log", data_.lineitem->schema()))) return;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(*env_.spans, "storage.checkpoint");
      if (!Exec(db, "CHECKPOINT")) return;
    }
    checkpoint_ms_ = MillisSince(t0);
    auto sizes = db.Query("SELECT name, bytes FROM system.tables");
    if (sizes.ok()) {
      for (const auto& row : sizes.value().rows()) {
        if (row[0].type() == sgb::engine::DataType::kString &&
            !row[1].is_null()) {
          bytes_[row[0].AsString()] = static_cast<size_t>(D(row[1]));
        }
      }
    }
  }
  // A pool that holds customer, supplier and partsupp (plus room for the
  // trickle table) but not orders or lineitem.
  const size_t small = table_bytes("customer") + table_bytes("supplier") +
                       table_bytes("partsupp");
  pool_bytes_ = small + small / 4 + 8 * 8192;
  sgb::storage::StorageOptions options;
  options.buffer_pool_bytes = pool_bytes_;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(*env_.spans, "storage.reopen");
    auto reopened = sgb::engine::Database::Open(dir_, options);
    if (!reopened.ok()) {
      env_.outcome->Failed("reopen: " + reopened.status().ToString());
      return;
    }
    db_ = std::make_unique<sgb::engine::Database>(std::move(reopened).value());
  }
  reopen_ms_ = MillisSince(t0);
  session_ = db_->CreateSession();

  // After reopen, every table holds exactly the rows acknowledged.
  for (const auto& [name, table] : tables) {
    auto r = db_->Query(*session_, "SELECT count(*) FROM " + name);
    ++env_.outcome->attempted;
    if (!r.ok()) {
      env_.outcome->Failed("count after reopen: " + r.status().ToString());
    } else if (IntColumn(r.value(), 0).at(0) !=
               static_cast<int64_t>(table->NumRows())) {
      env_.outcome->Wrong(name + ": row count after reopen differs");
    }
  }

  const double rss0 = CurrentRssMb();
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(*env_.spans, "stats.analyze");
    Exec(*db_, "ANALYZE");
  }
  analyze_ms_ = MillisSince(t1);
  analyze_rss_mb_ = CurrentRssMb() - rss0;
  insert_seq_ = 0;
  inserted_rows_ = 0;
  BuildSelects();
}

void TpchPaged::Teardown() {
  session_.reset();
  db_.reset();
  std::filesystem::remove_all(dir_);
}

void TpchPaged::BuildReferences() {
  sgb::workload::TpchConfig config;
  config.scale_factor = size_.scale_factor;
  config.seed = Mix(env_.seed, 20);
  const sgb::workload::TpchData d = sgb::workload::GenerateTpch(config);

  // Buying power: customers with big orders (GB1, SGB1, SGB2).
  std::unordered_map<int64_t, double> qty;
  for (const auto& r : d.lineitem->rows()) qty[r[0].AsInt()] += D(r[3]);
  std::unordered_map<int64_t, double> spend;
  for (const auto& r : d.orders->rows()) {
    if (qty[r[0].AsInt()] > 100 && D(r[2]) > 30000) {
      spend[r[1].AsInt()] += D(r[2]);
    }
  }
  buying_ = {};
  for (const auto& r : d.customer->rows()) {
    auto it = spend.find(r[0].AsInt());
    if (D(r[1]) > 100 && it != spend.end()) {
      buying_.index_of_id[r[0].AsInt()] =
          static_cast<uint32_t>(buying_.pts.size());
      buying_.ids.push_back(r[0].AsInt());
      buying_.pts.push_back({D(r[1]) / 10000, it->second / 1000000, 0});
    }
  }

  // Parts profit: per part over lineitem x partsupp x supplier (GB2, SGB3,
  // SGB4).
  std::unordered_set<int64_t> suppliers;
  std::unordered_map<int64_t, double> acctbal;
  for (const auto& r : d.supplier->rows()) {
    suppliers.insert(r[0].AsInt());
    acctbal[r[0].AsInt()] = D(r[1]);
  }
  std::map<std::pair<int64_t, int64_t>, double> cost;
  for (const auto& r : d.partsupp->rows()) {
    cost[{r[0].AsInt(), r[1].AsInt()}] = D(r[2]);
  }
  std::map<int64_t, std::pair<double, int64_t>> profit;
  for (const auto& r : d.lineitem->rows()) {
    auto c = cost.find({r[1].AsInt(), r[2].AsInt()});
    if (c == cost.end() || !suppliers.count(r[2].AsInt())) continue;
    auto& p = profit[r[1].AsInt()];
    p.first += D(r[4]) * (1 - D(r[5])) - c->second * D(r[3]);
    p.second += r[9].AsInt() - r[8].AsInt();
  }
  parts_ = {};
  for (const auto& [part, p] : profit) {
    parts_.pts.push_back({p.first / 1000000,
                          static_cast<double>(p.second) / 1000, 0});
  }

  // Top supplier: revenue over a ship-date range (GB3, SGB5, SGB6).
  std::map<int64_t, double> revenue;
  for (const auto& r : d.lineitem->rows()) {
    const std::string& ship = r[6].AsString();
    if (ship > "1995-01-01" && ship < "1996-11-01" &&
        suppliers.count(r[2].AsInt())) {
      revenue[r[2].AsInt()] += D(r[4]) * (1 - D(r[5]));
    }
  }
  supplier_ = {};
  for (const auto& [supp, rev] : revenue) {
    supplier_.index_of_id[supp] = static_cast<uint32_t>(supplier_.pts.size());
    supplier_.ids.push_back(supp);
    supplier_.pts.push_back({rev / 1000000, acctbal[supp] / 10000, 0});
  }
  for (Derived* x : {&buying_, &parts_, &supplier_}) {
    x->any = MakeAnyReference(x->pts, 2, Dist::kL2, size_.eps);
  }
}

void TpchPaged::BuildSelects() {
  using sgb::core::OverlapClause;
  namespace wl = sgb::workload;
  const auto l2 = sgb::geom::Metric::kL2;
  selects_.clear();

  // Equality GROUP BY: groups of identical derived points.
  auto equal_groups = [](const Derived& x) {
    std::map<std::pair<double, double>, std::vector<int64_t>> g;
    for (size_t i = 0; i < x.pts.size(); ++i) {
      g[{x.pts[i][0], x.pts[i][1]}].push_back(x.ids.empty()
                                                  ? static_cast<int64_t>(i)
                                                  : x.ids[i]);
    }
    return g;
  };
  auto gb_ids = [this, equal_groups](const Derived* x, size_t column) {
    return [x, column, equal_groups](const Table& t) -> std::string {
      std::multiset<std::vector<int64_t>> expect;
      for (auto& [key, ids] : equal_groups(*x)) {
        std::sort(ids.begin(), ids.end());
        expect.insert(ids);
      }
      bool ok = false;
      auto got = IdLists(t, column, &ok);
      if (!ok) return "unreadable array_agg column";
      return got == expect ? "" : "groups differ from the recomputation";
    };
  };
  auto any_ids = [](const Derived* x, size_t column) {
    return [x, column](const Table& t) -> std::string {
      std::vector<std::vector<uint32_t>> groups;
      if (!GroupsFromIdColumn(t, column, x->index_of_id, &groups)) {
        return "unreadable array_agg column";
      }
      return CheckAnyGroups(groups, x->pts.size(), x->any);
    };
  };
  auto all_ids = [this](const Derived* x, size_t column) {
    return [this, x, column](const Table& t) -> std::string {
      std::vector<std::vector<uint32_t>> groups;
      if (!GroupsFromIdColumn(t, column, x->index_of_id, &groups)) {
        return "unreadable array_agg column";
      }
      return CheckAllGroups(groups, x->pts, 2, Dist::kL2, size_.eps,
                            Overlap::kJoinAny, x->any.loose_count);
    };
  };
  const double e = size_.eps;

  // Every statement's group check, followed by its aggregate check.
  auto with_aggs = [](std::function<std::string(const Table&)> check,
                      const Derived* x, Family family, size_t id_column,
                      double all_eps) {
    return [check, x, family, id_column, all_eps](const Table& t) -> std::string {
      std::string problem = check(t);
      if (problem.empty()) {
        problem = CheckAggregates(t, x->pts, x->index_of_id, family,
                                  id_column, all_eps);
      }
      return problem;
    };
  };
  selects_.push_back({"tpch.gb1", "relational", wl::Gb1(), gb_ids(&buying_, 4)});
  selects_.push_back({"tpch.sgb1", "sgb_all",
                      wl::Sgb1(e, l2, OverlapClause::kJoinAny),
                      all_ids(&buying_, 4)});
  selects_.push_back({"tpch.sgb2", "sgb_any", wl::Sgb2(e, l2),
                      any_ids(&buying_, 4)});
  selects_.push_back(
      {"tpch.gb2", "relational", wl::Gb2(),
       [this, equal_groups](const Table& t) -> std::string {
         std::multiset<int64_t> expect, got;
         for (const auto& [key, ids] : equal_groups(parts_)) {
           expect.insert(static_cast<int64_t>(ids.size()));
         }
         for (int64_t c : IntColumn(t, 0)) got.insert(c);
         return got == expect ? "" : "group sizes differ";
       }});
  selects_.push_back({"tpch.sgb3", "sgb_all",
                      wl::Sgb3(e, l2, OverlapClause::kJoinAny),
                      [this](const Table& t) {
                        return CheckAllCounts(IntColumn(t, 0),
                                              parts_.pts.size(),
                                              Overlap::kJoinAny,
                                              parts_.any.loose_count);
                      }});
  selects_.push_back({"tpch.sgb4", "sgb_any", wl::Sgb4(e, l2),
                      [this](const Table& t) {
                        return CheckAnyCounts(IntColumn(t, 0),
                                              parts_.pts.size(), parts_.any);
                      }});
  selects_.push_back({"tpch.gb3", "relational", wl::Gb3(),
                      gb_ids(&supplier_, 0)});
  selects_.push_back({"tpch.sgb5", "sgb_all",
                      wl::Sgb5(e, l2, OverlapClause::kJoinAny),
                      all_ids(&supplier_, 0)});
  selects_.push_back({"tpch.sgb6", "sgb_any", wl::Sgb6(e, l2),
                      any_ids(&supplier_, 0)});
  // Aggregate columns of the Table-2 statements, per family.
  const std::map<std::string, std::pair<const Derived*, std::pair<Family, size_t>>>
      aggs = {{"tpch.gb1", {&buying_, {Family::kBuying, 4}}},
              {"tpch.sgb1", {&buying_, {Family::kBuying, 4}}},
              {"tpch.sgb2", {&buying_, {Family::kBuying, 4}}},
              {"tpch.gb2", {&parts_, {Family::kParts, 0}}},
              {"tpch.sgb3", {&parts_, {Family::kParts, 0}}},
              {"tpch.sgb4", {&parts_, {Family::kParts, 0}}},
              {"tpch.gb3", {&supplier_, {Family::kSupplier, 0}}},
              {"tpch.sgb5", {&supplier_, {Family::kSupplier, 0}}},
              {"tpch.sgb6", {&supplier_, {Family::kSupplier, 0}}}};
  for (Select& sel : selects_) {
    auto it = aggs.find(sel.kind);
    if (it == aggs.end()) continue;
    sel.check = with_aggs(sel.check, it->second.first,
                          it->second.second.first, it->second.second.second,
                          sel.kind == "tpch.sgb3" ? e : 0.0);
  }
  selects_.push_back(
      {"tpch.filter", "relational",
       "SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_discount > " +
           ExactDouble(kFilterDiscount) +
           " AND l_shipdays > " + std::to_string(kFilterShipdays),
       [this](const Table& t) -> std::string {
         int64_t count = 0;
         double sum = 0;
         for (const auto& r : data_.lineitem->rows()) {
           if (D(r[5]) > kFilterDiscount && r[8].AsInt() > kFilterShipdays) {
             ++count;
             sum += D(r[3]);
           }
         }
         if (t.NumRows() != 1) return "expected one row";
         return IntColumn(t, 0)[0] == count && Close(D(t.rows()[0][1]), sum)
                    ? ""
                    : "count or sum differs";
       }});
  selects_.push_back(
      {"tpch.sort", "relational",
       "SELECT o_orderkey, o_totalprice FROM orders "
       "ORDER BY o_totalprice DESC LIMIT 20",
       [this](const Table& t) -> std::string {
         std::vector<double> prices;
         for (const auto& r : data_.orders->rows()) prices.push_back(D(r[2]));
         std::sort(prices.rbegin(), prices.rend());
         prices.resize(std::min<size_t>(20, prices.size()));
         if (t.NumRows() != prices.size()) return "row count differs";
         for (size_t i = 0; i < prices.size(); ++i) {
           if (D(t.rows()[i][1]) != prices[i]) return "order differs";
         }
         return "";
       }});
}

void TpchPaged::Insert(uint64_t statement_id) {
  // New line items copied from generated ones, under fresh order keys.
  const auto& src = data_.lineitem->rows();
  std::vector<sgb::engine::Row> rows;
  for (size_t i = 0; i < size_.insert_rows; ++i) {
    sgb::engine::Row row = src[(insert_seq_ * size_.insert_rows + i) *
                               7919 % src.size()];
    row[0] = Value::Int(1000000000 + static_cast<int64_t>(insert_seq_));
    rows.push_back(std::move(row));
  }
  ++insert_seq_;
  const std::string sql = InsertSql("lineitem_log", rows, 0, rows.size());
  ++env_.outcome->attempted;
  const Clock::time_point t0 = Clock::now();
  sgb::Result<Table> r = sgb::Status::Internal("not run");
  {
    ScopedSpan span(*env_.spans, "stmt.paged_insert", statement_id);
    r = db_->Query(*session_, sql);
  }
  const double ms = MillisSince(t0);
  if (!r.ok()) {
    env_.outcome->Failed("paged insert: " + r.status().ToString());
    return;
  }
  inserted_rows_ += rows.size();
  if (env_.recording) env_.recorder->Add("paged_insert", ms);
}

void TpchPaged::CheckInserted() {
  ++env_.outcome->attempted;
  auto r = db_->Query(*session_, "SELECT count(*) FROM lineitem_log");
  if (!r.ok()) {
    env_.outcome->Failed("count lineitem_log: " + r.status().ToString());
  } else if (IntColumn(r.value(), 0).at(0) !=
             static_cast<int64_t>(inserted_rows_)) {
    env_.outcome->Wrong("lineitem_log row count differs from rows acknowledged");
  }
}

TpchPaged::PoolCounters TpchPaged::Pool() {
  PoolCounters c;
  auto r = db_->Query(*session_,
                      "SELECT hits, misses, evictions, wal_bytes "
                      "FROM system.buffer_pool");
  if (r.ok() && r.value().NumRows() == 1) {
    const auto& row = r.value().rows()[0];
    c = {D(row[0]), D(row[1]), D(row[2]), D(row[3])};
  }
  return c;
}

void TpchPaged::Probe(std::map<std::string, double>* layer) {
  SpanLog& spans = *env_.spans;
  constexpr int kReps = 3;
  auto probe_failed = [this](const std::string& what) {
    env_.outcome->Wrong("per-layer probe failed: " + what);
  };
  double parse_ms = 0, plan_ms = 0;
  for (const Select& s : selects_) {
    parse_ms += TimeCalls(spans, "sql.parse", kReps, [&] {
      (void)sgb::sql::ParseStatement(s.sql);
    });
    auto parsed = sgb::sql::ParseStatement(s.sql);
    if (!parsed.ok() || parsed.value().select == nullptr) continue;
    plan_ms += TimeCalls(spans, "sql.plan", kReps, [&] {
      if (!sgb::sql::PlanQuery(db_->catalog(), *parsed.value().select).ok()) {
        probe_failed("PlanQuery");
      }
    });
  }
  std::vector<sgb::engine::Row> rows(data_.lineitem->rows().begin(),
                                     data_.lineitem->rows().begin() +
                                         static_cast<std::ptrdiff_t>(
                                             size_.insert_rows));
  const std::string insert = InsertSql("lineitem_log", rows, 0, rows.size());
  parse_ms += TimeCalls(spans, "sql.parse", kReps, [&] {
    (void)sgb::sql::ParseStatement(insert);
  });
  (*layer)["sql.parse_us"] += parse_ms * 1000.0;
  (*layer)["sql.plan_us"] += plan_ms * 1000.0;

  (*layer)["storage.scan_ms"] = TimeCalls(spans, "storage.scan", kReps, [&] {
    auto op = db_->Prepare("SELECT * FROM lineitem");
    if (!op.ok()) return probe_failed("Prepare");
    sgb::engine::OperatorPtr plan = std::move(op).value();
    plan->Open();
    sgb::engine::RowBatch batch;
    while (plan->NextBatch(&batch)) {
    }
  });
  (*layer)["engine.join_ms"] = env_.recorder->MedianOf("tpch.gb1") +
                               env_.recorder->MedianOf("tpch.gb2") +
                               env_.recorder->MedianOf("tpch.gb3");
}

}  // namespace perfbench
