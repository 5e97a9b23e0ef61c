// Shared pieces of the benchmark's three components: the latency recorder,
// the run outcome, and the statement record every component runs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "reference.h"
#include "spans.h"

namespace perfbench {

/// What the run did: operations attempted and failed, and whether every
/// result that came back passed its reference check.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_problem;

  void Failed(const std::string& why);
  void Wrong(const std::string& why);
};

/// Per-run latency samples (ms) of each statement kind.
class Recorder {
 public:
  void Add(const std::string& kind, double ms) { samples_[kind].push_back(ms); }
  /// Median of one kind's samples; NaN when it has none.
  double MedianOf(const std::string& kind) const {
    return QuantileOf(kind, 0.5);
  }
  /// The q-quantile of one kind's samples (0 = the fastest); NaN when it
  /// has none.
  double QuantileOf(const std::string& kind, double q) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// One SELECT the timed loop runs: its kind (the recorder key), the
/// end-to-end family it counts in, its text, and the reference check of its
/// result table (empty string = correct).
struct Select {
  std::string kind;
  std::string family;
  std::string sql;
  std::function<std::string(const sgb::engine::Table&)> check;
};

/// Context shared by every component of one run.
struct Env {
  uint64_t seed = 0;
  SpanLog* spans = nullptr;
  Outcome* outcome = nullptr;
  Recorder* recorder = nullptr;
  bool recording = false;  ///< false during set-up's warm-up pass
};

/// Runs `select` on `session`, times it from SQL text in to result table
/// out, checks the result, and records the latency under its kind.
void RunSelect(Env& env, const sgb::engine::Database& db,
               sgb::engine::Session& session, const Select& select,
               uint64_t statement_id);

/// Median wall time (ms) of `reps` calls of `fn`, each inside a span.
template <typename Fn>
double TimeCalls(SpanLog& spans, const std::string& name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, name);
      fn();
    }
    ms.push_back(MillisSince(t0));
  }
  return Median(ms);
}

/// Splits List_ID output cells into row-index groups via `index_of_id`.
/// Returns false when a cell does not parse or names an unknown id.
bool GroupsFromIdColumn(const sgb::engine::Table& table, size_t column,
                        const std::unordered_map<int64_t, uint32_t>& index_of_id,
                        std::vector<std::vector<uint32_t>>* groups);

/// Integer cells of one column (count(*) results).
std::vector<int64_t> IntColumn(const sgb::engine::Table& table, size_t column);

/// Numeric value of a cell (Int or Double).
double Number(const sgb::engine::Value& v);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
