#include "bench.h"

#include <cmath>

namespace perfbench {

void Outcome::Failed(const std::string& why) {
  ++failed;
  if (first_problem.empty()) first_problem = "failed: " + why;
}

void Outcome::Wrong(const std::string& why) {
  if (correct) first_problem = "wrong result: " + why;
  correct = false;
}

double Recorder::QuantileOf(const std::string& kind, double q) const {
  auto it = samples_.find(kind);
  return it == samples_.end() ? std::nan("") : Quantile(it->second, q);
}

void RunSelect(Env& env, const sgb::engine::Database& db,
               sgb::engine::Session& session, const Select& select,
               uint64_t statement_id) {
  ++env.outcome->attempted;
  sgb::Result<sgb::engine::Table> result = sgb::Status::Internal("not run");
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(*env.spans, "stmt." + select.kind, statement_id);
    result = db.Query(session, select.sql);
  }
  const double ms = MillisSince(t0);
  if (!result.ok()) {
    env.outcome->Failed(select.kind + ": " + result.status().ToString());
    return;
  }
  if (env.recording) env.recorder->Add(select.kind, ms);
  const std::string problem = select.check(result.value());
  if (!problem.empty()) env.outcome->Wrong(select.kind + ": " + problem);
}

bool GroupsFromIdColumn(const sgb::engine::Table& table, size_t column,
                        const std::unordered_map<int64_t, uint32_t>& index_of_id,
                        std::vector<std::vector<uint32_t>>* groups) {
  groups->clear();
  groups->reserve(table.NumRows());
  std::vector<int64_t> ids;
  for (const sgb::engine::Row& row : table.rows()) {
    if (column >= row.size() ||
        row[column].type() != sgb::engine::DataType::kString ||
        !ParseIdList(row[column].AsString(), &ids)) {
      return false;
    }
    std::vector<uint32_t> members;
    members.reserve(ids.size());
    for (int64_t id : ids) {
      auto it = index_of_id.find(id);
      if (it == index_of_id.end()) return false;
      members.push_back(it->second);
    }
    groups->push_back(std::move(members));
  }
  return true;
}

std::vector<int64_t> IntColumn(const sgb::engine::Table& table,
                               size_t column) {
  std::vector<int64_t> out;
  out.reserve(table.NumRows());
  for (const sgb::engine::Row& row : table.rows()) {
    out.push_back(column < row.size()
                      ? static_cast<int64_t>(std::llround(Number(row[column])))
                      : -1);
  }
  return out;
}

double Number(const sgb::engine::Value& v) {
  if (v.type() == sgb::engine::DataType::kInt64) {
    return static_cast<double>(v.AsInt());
  }
  if (v.type() == sgb::engine::DataType::kDouble) return v.AsDouble();
  return std::nan("");
}

}  // namespace perfbench
