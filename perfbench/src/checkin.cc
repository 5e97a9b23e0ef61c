// CheckinSession: SQL over an in-memory, ANALYZEd check-in table.
#include <algorithm>
#include <cstdio>
#include <regex>
#include <unordered_map>

#include "components.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_nd.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace perfbench {

using sgb::engine::Column;
using sgb::engine::DataType;
using sgb::engine::Table;
using sgb::engine::Value;

namespace {

std::string Eps(double eps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", eps);
  return buf;
}

}  // namespace

void CheckinSession::Setup() {
  rows_ = GenerateCheckins(size_.rows, Mix(env_.seed, 10));
  auto table = std::make_shared<Table>(sgb::engine::Schema({
      Column{"id", DataType::kInt64, ""},
      Column{"user_id", DataType::kInt64, ""},
      Column{"longitude", DataType::kDouble, ""},
      Column{"latitude", DataType::kDouble, ""},
      Column{"alt", DataType::kDouble, ""},
  }));
  table->Reserve(rows_.size());
  for (const Checkin& c : rows_) {
    (void)table->Append(sgb::engine::Row{Value::Int(c.id), Value::Int(c.user_id),
                                         Value::Double(c.x), Value::Double(c.y),
                                         Value::Double(c.alt)});
  }
  db_ = std::make_unique<sgb::engine::Database>();
  db_->Register("checkins", std::move(table));
  session_ = db_->CreateSession();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(*env_.spans, "stats.analyze");
    auto r = db_->Query(*session_, "ANALYZE checkins");
    if (!r.ok()) env_.outcome->Failed("ANALYZE checkins: " + r.status().ToString());
  }
  analyze_ms_ = MillisSince(t0);
  BuildSelects();
}

void CheckinSession::BuildReferences() {
  rows_ = GenerateCheckins(size_.rows, Mix(env_.seed, 10));
  pts2_.clear();
  pts3_.clear();
  index_of_id_.clear();
  for (size_t i = 0; i < rows_.size(); ++i) {
    pts2_.push_back({rows_[i].x, rows_[i].y, 0.0});
    pts3_.push_back({rows_[i].x, rows_[i].y, rows_[i].alt});
    index_of_id_[rows_[i].id] = static_cast<uint32_t>(i);
  }
  any_l2_ = MakeAnyReference(pts2_, 2, Dist::kL2, size_.eps);
  any_linf_ = MakeAnyReference(pts2_, 2, Dist::kLinf, size_.eps);
  any_3d_ = MakeAnyReference(pts3_, 3, Dist::kL2, size_.eps);
  eliminate_ = CanonicalGroups(
      EliminateGroups(pts2_, 2, Dist::kL2, size_.eps));
}

void CheckinSession::BuildSelects() {
  selects_.clear();
  const std::string e = Eps(size_.eps);
  const std::string head = "SELECT count(*), list_id(id) FROM checkins ";
  const size_t n = rows_.size();

  auto any_check = [this, n](const AnyReference* ref) {
    return [this, n, ref](const Table& t) -> std::string {
      std::vector<std::vector<uint32_t>> groups;
      if (!GroupsFromIdColumn(t, 1, index_of_id_, &groups)) {
        return "unreadable List_ID column";
      }
      const std::vector<int64_t> counts = IntColumn(t, 0);
      for (size_t g = 0; g < groups.size(); ++g) {
        if (counts[g] != static_cast<int64_t>(groups[g].size())) {
          return "count(*) differs from the List_ID size";
        }
      }
      return CheckAnyGroups(groups, n, *ref);
    };
  };
  auto all_check = [this](Overlap overlap) {
    return [this, overlap](const Table& t) -> std::string {
      std::vector<std::vector<uint32_t>> groups;
      if (!GroupsFromIdColumn(t, 1, index_of_id_, &groups)) {
        return "unreadable List_ID column";
      }
      const std::vector<int64_t> counts = IntColumn(t, 0);
      for (size_t g = 0; g < groups.size(); ++g) {
        if (counts[g] != static_cast<int64_t>(groups[g].size())) {
          return "count(*) differs from the List_ID size";
        }
      }
      return CheckAllGroups(groups, pts2_, 2, Dist::kL2, size_.eps, overlap,
                            any_l2_.loose_count, &eliminate_);
    };
  };

  const std::string g2 = "GROUP BY longitude, latitude ";
  selects_.push_back({"checkin.any_l2", "sgb_any",
                      head + g2 + "DISTANCE-TO-ANY L2 WITHIN " + e,
                      any_check(&any_l2_)});
  selects_.push_back({"checkin.all_join_any", "sgb_all",
                      head + g2 + "DISTANCE-TO-ALL L2 WITHIN " + e +
                          " ON-OVERLAP JOIN-ANY",
                      all_check(Overlap::kJoinAny)});
  selects_.push_back({"checkin.rel_count", "relational",
                      "SELECT count(*) FROM checkins",
                      [n](const Table& t) -> std::string {
                        const std::vector<int64_t> c = IntColumn(t, 0);
                        return c.size() == 1 && c[0] == static_cast<int64_t>(n)
                                   ? ""
                                   : "count(*) differs";
                      }});
  selects_.push_back({"checkin.any_linf", "sgb_any",
                      head + g2 + "DISTANCE-TO-ANY LINF WITHIN " + e,
                      any_check(&any_linf_)});
  selects_.push_back({"checkin.all_eliminate", "sgb_all",
                      head + g2 + "DISTANCE-TO-ALL L2 WITHIN " + e +
                          " ON-OVERLAP ELIMINATE",
                      all_check(Overlap::kEliminate)});
  selects_.push_back(
      {"checkin.rel_range", "relational",
       "SELECT count(*), sum(user_id) FROM checkins "
       "WHERE latitude > 30 AND latitude < 40",
       [this](const Table& t) -> std::string {
         int64_t count = 0, sum = 0;
         for (const Checkin& c : rows_) {
           if (c.y > 30 && c.y < 40) {
             ++count;
             sum += c.user_id;
           }
         }
         if (t.NumRows() != 1) return "expected one row";
         return IntColumn(t, 0)[0] == count && IntColumn(t, 1)[0] == sum
                    ? ""
                    : "count or sum differs";
       }});
  selects_.push_back({"checkin.any_l2_dop2", "sgb_any",
                      head + g2 + "DISTANCE-TO-ANY L2 WITHIN " + e +
                          " PARALLEL 2",
                      any_check(&any_l2_)});
  selects_.push_back({"checkin.all_form_new_group", "sgb_all",
                      head + g2 + "DISTANCE-TO-ALL L2 WITHIN " + e +
                          " ON-OVERLAP FORM-NEW-GROUP",
                      all_check(Overlap::kFormNewGroup)});
  selects_.push_back(
      {"checkin.rel_group_user", "relational",
       "SELECT user_id, count(*) FROM checkins GROUP BY user_id",
       [this](const Table& t) -> std::string {
         std::unordered_map<int64_t, int64_t> expect;
         for (const Checkin& c : rows_) ++expect[c.user_id];
         if (t.NumRows() != expect.size()) return "group count differs";
         for (const sgb::engine::Row& row : t.rows()) {
           auto it = expect.find(static_cast<int64_t>(Number(row[0])));
           if (it == expect.end() ||
               it->second != static_cast<int64_t>(Number(row[1]))) {
             return "a user's count differs";
           }
         }
         return "";
       }});
  // Its own family, reported by no end-to-end metric: how long it takes
  // depends on the seed (README, "Dropped metrics").
  selects_.push_back({"checkin.any_3d", "sgb_3d",
                      head + "GROUP BY longitude, latitude, alt "
                             "DISTANCE-TO-ANY L2 WITHIN " + e,
                      any_check(&any_3d_)});
  selects_.push_back({"checkin.all_join_any_dop2", "sgb_all",
                      head + g2 + "DISTANCE-TO-ALL L2 WITHIN " + e +
                          " ON-OVERLAP JOIN-ANY PARALLEL 2",
                      all_check(Overlap::kJoinAny)});
  selects_.push_back(
      {"checkin.rel_topn", "relational",
       "SELECT id, latitude FROM checkins ORDER BY latitude LIMIT 10",
       [this](const Table& t) -> std::string {
         std::vector<const Checkin*> order;
         for (const Checkin& c : rows_) order.push_back(&c);
         const size_t k = std::min<size_t>(10, order.size());
         std::partial_sort(order.begin(), order.begin() + k, order.end(),
                           [](const Checkin* a, const Checkin* b) {
                             return a->y != b->y ? a->y < b->y : a->id < b->id;
                           });
         if (t.NumRows() != k) return "row count differs";
         for (size_t i = 0; i < k; ++i) {
           if (Number(t.rows()[i][1]) != order[i]->y) return "order differs";
         }
         return "";
       }});
}

void CheckinSession::PrepareShell() {
  static const std::regex kTier("tier=([a-z-]+)");
  static const std::regex kDop("dop=([0-9]+|auto)");
  shell_.clear();
  shell_points_.clear();
  for (const Vec3& v : pts2_) shell_points_.push_back({v[0], v[1]});
  for (const Select& s : selects_) {
    if (s.kind != "checkin.any_l2" && s.kind != "checkin.all_join_any") {
      continue;
    }
    auto plan = db_->Query(*session_, "EXPLAIN " + s.sql);
    if (!plan.ok()) {
      env_.outcome->Wrong(s.kind + ": EXPLAIN failed");
      continue;
    }
    std::string text;
    for (const sgb::engine::Row& row : plan.value().rows()) {
      text += row[0].ToString() + "\n";
    }
    CoreCall call;
    std::smatch m;
    if (std::regex_search(text, m, kTier)) call.tier = m[1];
    if (std::regex_search(text, m, kDop)) {
      call.dop = m[1] == "auto" ? 0 : std::stoi(m[1]);
    }
    shell_[s.kind] = call;
  }
}

void CheckinSession::ShadowCore(const Select& select, uint64_t statement_id) {
  auto it = shell_.find(select.kind);
  if (it == shell_.end()) return;
  const CoreCall& call = it->second;
  bool ok = false;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(*env_.spans, "core.shadow", statement_id);
    if (select.family == "sgb_any") {
      sgb::core::SgbAnyOptions any;
      any.epsilon = size_.eps;
      any.metric = sgb::geom::Metric::kL2;
      any.degree_of_parallelism = call.dop;
      any.algorithm = call.tier == "all-pairs"
                          ? sgb::core::SgbAnyAlgorithm::kAllPairs
                          : sgb::core::SgbAnyAlgorithm::kIndexed;
      ok = sgb::core::SgbAny(shell_points_, any).ok();
    } else {
      sgb::core::SgbAllOptions all;
      all.epsilon = size_.eps;
      all.metric = sgb::geom::Metric::kL2;
      all.on_overlap = sgb::core::OverlapClause::kJoinAny;
      all.degree_of_parallelism = call.dop;
      all.algorithm = call.tier == "all-pairs"
                          ? sgb::core::SgbAllAlgorithm::kAllPairs
                      : call.tier == "bounds"
                          ? sgb::core::SgbAllAlgorithm::kBoundsChecking
                          : sgb::core::SgbAllAlgorithm::kIndexed;
      ok = sgb::core::SgbAll(shell_points_, all).ok();
    }
  }
  const double ms = MillisSince(t0);
  if (!ok) env_.outcome->Wrong(select.kind + ": core call failed");
  if (env_.recording) env_.recorder->Add(select.kind + ".core", ms);
}

void CheckinSession::Probe(std::map<std::string, double>* layer) {
  SpanLog& spans = *env_.spans;
  constexpr int kReps = 3;
  auto probe_failed = [this](const std::string& what) {
    env_.outcome->Wrong("per-layer probe failed: " + what);
  };

  // Parse and plan every statement through the SQL layer's own entry points.
  double parse_ms = 0, plan_ms = 0;
  for (const Select& s : selects_) {
    parse_ms += TimeCalls(spans, "sql.parse", kReps, [&] {
      (void)sgb::sql::ParseStatement(s.sql);
    });
    auto parsed = sgb::sql::ParseStatement(s.sql);
    if (!parsed.ok() || parsed.value().select == nullptr) {
      env_.outcome->Wrong(s.kind + ": does not parse as a SELECT");
      continue;
    }
    plan_ms += TimeCalls(spans, "sql.plan", kReps, [&] {
      if (!sgb::sql::PlanQuery(db_->catalog(), *parsed.value().select).ok()) {
        probe_failed("PlanQuery");
      }
    });
  }
  (*layer)["sql.parse_us"] += parse_ms * 1000.0;
  (*layer)["sql.plan_us"] += plan_ms * 1000.0;

  // Scan: Prepare, then drain a two-coordinate projection batch by batch.
  (*layer)["engine.scan_ms"] = TimeCalls(spans, "engine.scan", kReps, [&] {
    auto op = db_->Prepare("SELECT longitude, latitude FROM checkins");
    if (!op.ok()) return probe_failed("Prepare");
    sgb::engine::OperatorPtr plan = std::move(op).value();
    plan->Open();
    sgb::engine::RowBatch batch;
    while (plan->NextBatch(&batch)) {
    }
  });

  // The grouping core on the statements' own points and options.
  std::vector<sgb::geom::Point> p2;
  std::vector<sgb::geom::PointN<3>> p3;
  for (const Vec3& v : pts3_) {
    p2.push_back({v[0], v[1]});
    sgb::geom::PointN<3> q;
    q.c = {v[0], v[1], v[2]};
    p3.push_back(q);
  }
  sgb::core::SgbAnyOptions any;
  any.epsilon = size_.eps;
  any.metric = sgb::geom::Metric::kL2;
  sgb::core::SgbAnyStats any_stats;
  (*layer)["core.any_ms"] = TimeCalls(spans, "core.any", kReps, [&] {
    any_stats = {};
    if (!sgb::core::SgbAny(p2, any, &any_stats).ok()) probe_failed("SgbAny");
  });
  (*layer)["core.any.distance_computations"] =
      static_cast<double>(any_stats.distance_computations);
  (*layer)["core.any.window_queries"] =
      static_cast<double>(any_stats.index_window_queries);
  (*layer)["core.any.union_ops"] =
      static_cast<double>(any_stats.union_operations);
  any.degree_of_parallelism = 2;
  (*layer)["core.any_dop2_ms"] = TimeCalls(spans, "core.any_dop2", kReps, [&] {
    if (!sgb::core::SgbAny(p2, any).ok()) probe_failed("SgbAny");
  });
  any.degree_of_parallelism = 1;
  (*layer)["core.3d_ms"] = TimeCalls(spans, "core.3d", kReps, [&] {
    if (!sgb::core::SgbAnyNd<3>(p3, any).ok()) probe_failed("SgbAnyNd");
  });

  // SGB-All counters are summed over every SGB-All call of the probe (the
  // three overlap clauses at dop 1 and JOIN-ANY at dop 2): at dop 1 the
  // rectangle and hull tests do the work, at dop 2 the 3-eps components
  // run distance computations.
  sgb::core::SgbAllOptions all;
  all.epsilon = size_.eps;
  all.metric = sgb::geom::Metric::kL2;
  double all_ms = 0;
  double all_dist = 0, all_rect = 0, all_hull = 0;
  auto add_counts = [&](const sgb::core::SgbAllStats& stats) {
    all_dist += static_cast<double>(stats.distance_computations);
    all_rect += static_cast<double>(stats.rectangle_tests);
    all_hull += static_cast<double>(stats.hull_tests);
  };
  for (auto clause : {sgb::core::OverlapClause::kJoinAny,
                      sgb::core::OverlapClause::kEliminate,
                      sgb::core::OverlapClause::kFormNewGroup}) {
    all.on_overlap = clause;
    sgb::core::SgbAllStats stats;
    all_ms += TimeCalls(spans, "core.all", kReps, [&] {
      stats = {};
      if (!sgb::core::SgbAll(p2, all, &stats).ok()) probe_failed("SgbAll");
    });
    add_counts(stats);
  }
  (*layer)["core.all_ms"] = all_ms;
  all.on_overlap = sgb::core::OverlapClause::kJoinAny;
  all.degree_of_parallelism = 2;
  sgb::core::SgbAllStats par_stats;
  (*layer)["core.all_dop2_ms"] = TimeCalls(spans, "core.all_dop2", kReps, [&] {
    par_stats = {};
    if (!sgb::core::SgbAll(p2, all, &par_stats).ok()) probe_failed("SgbAll");
  });
  add_counts(par_stats);
  (*layer)["core.all.distance_computations"] = all_dist;
  (*layer)["core.all.rectangle_tests"] = all_rect;
  (*layer)["core.all.hull_tests"] = all_hull;
  double total = 0, largest = 0;
  for (const auto& w : par_stats.workers) {
    total += static_cast<double>(w.distance_computations);
    largest = std::max(largest, static_cast<double>(w.distance_computations));
  }
  (*layer)["core.all.max_worker_share"] = total > 0 ? largest / total : 1.0;

  // What the SGB operator costs around the core: statement minus the core
  // call with the planner's tier and dop, both timed in the same rounds.
  double shell_ms = 0;
  for (const auto& [kind, call] : shell_) {
    shell_ms += env_.recorder->MedianOf(kind) -
                env_.recorder->MedianOf(kind + ".core");
  }
  (*layer)["engine.sgb_shell_ms"] = shell_ms;

  // Planner estimates against EXPLAIN ANALYZE actuals.
  static const std::regex kEst("est_groups=([0-9]+)");
  static const std::regex kGroups(" groups=([0-9]+)");
  std::vector<double> ratios;
  for (const Select& s : selects_) {
    if (s.family == "relational") continue;
    auto text = db_->ExplainAnalyze(s.sql);
    std::smatch est, act;
    if (!text.ok()) {
      probe_failed("EXPLAIN ANALYZE");
      continue;
    }
    const std::string& plan = text.value();
    if (std::regex_search(plan, est, kEst) &&
        std::regex_search(plan, act, kGroups) && std::stod(act[1]) > 0) {
      ratios.push_back(std::stod(est[1]) / std::stod(act[1]));
    }
  }
  (*layer)["planner.groups_est_ratio"] = Median(ratios);

  // Peak tracked bytes of the SGB statements, from the query log.
  for (const Select& s : selects_) {
    if (s.family != "relational") (void)db_->Query(*session_, s.sql);
  }
  auto peak = db_->Query(*session_,
                         "SELECT max(peak_memory_bytes) FROM system.query_log "
                         "WHERE tier <> 'none'");
  (*layer)["mem.query_peak_mb"] =
      peak.ok() && peak.value().NumRows() == 1
          ? Number(peak.value().rows()[0][0]) / (1024.0 * 1024.0)
          : std::nan("");

  // Top-N on its cached plan (the loop's samples) against textually
  // distinct copies planned afresh, and what the cached plans keep.
  (*layer)["engine.topn_ms"] = env_.recorder->MedianOf("checkin.rel_topn");
  (*layer)["engine.hash_agg_ms"] =
      env_.recorder->MedianOf("checkin.rel_group_user");
  constexpr int kDistinct = 12;
  std::vector<double> fresh;
  const double rss_before = CurrentRssMb();
  for (int k = 0; k < kDistinct; ++k) {
    const std::string sql = "SELECT id AS id_" + std::to_string(k) +
                            ", latitude FROM checkins ORDER BY latitude "
                            "LIMIT 10";
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "engine.topn_fresh");
      if (!db_->Query(*session_, sql).ok()) probe_failed("fresh top-N");
    }
    fresh.push_back(MillisSince(t0));
  }
  (*layer)["engine.topn_fresh_ms"] = Median(fresh);
  (*layer)["engine.plan_cache_retained_mb"] = CurrentRssMb() - rss_before;
}

}  // namespace perfbench
