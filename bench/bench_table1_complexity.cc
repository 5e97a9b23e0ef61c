// Table 1: SGB-All complexity per algorithm tier x ON-OVERLAP clause
// (L∞ distance):
//
//                 JOIN-ANY      ELIMINATE     FORM-NEW-GROUP
//   All-Pairs     O(n^2)        O(n^2)        O(n^3)
//   Bounds-Check  O(n|G|)       O(n|G|)       O(mn|G|)
//   Index         O(n log|G|)   O(n log|G|)   O(mn log|G|)
//
// This harness validates the *growth* empirically: it times each cell at
// doubling input sizes and reports the log2 runtime ratio per doubling
// ("slope": ~2.0 for quadratic, ~1.0 for near-linear; |G| is held roughly
// proportional to n by fixing ε on uniform data).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/sgb_all.h"
#include "obs/metrics.h"

namespace {

using sgb::ScopedTimer;
using sgb::bench::Scaled;
using sgb::bench::UniformPoints;
using sgb::core::OverlapClause;
using sgb::core::SgbAllAlgorithm;
using sgb::core::SgbAllOptions;

double TimeRun(const std::vector<sgb::geom::Point>& pts,
               SgbAllAlgorithm algorithm, OverlapClause clause) {
  SgbAllOptions options;
  options.epsilon = 0.05;  // on [0,1]^2 uniform data: many groups, |G| ~ n
  options.metric = sgb::geom::Metric::kLInf;
  options.algorithm = algorithm;
  options.on_overlap = clause;
  // Per-run wall times also land in the registry histogram, so the JSON
  // snapshot carries the full latency distribution alongside the table.
  ScopedTimer<sgb::obs::Histogram> timer(
      &sgb::obs::MetricsRegistry::Global().GetHistogram(
          "bench.table1.run_us"));
  auto result = sgb::core::SgbAll(pts, options);
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) std::fprintf(stderr, "error: %s\n",
                                 result.status().ToString().c_str());
  return seconds;
}

}  // namespace

int main() {
  const std::vector<size_t> sizes = {Scaled(1000), Scaled(2000),
                                     Scaled(4000), Scaled(8000)};
  const std::pair<const char*, SgbAllAlgorithm> algos[] = {
      {"All-Pairs", SgbAllAlgorithm::kAllPairs},
      {"Bounds-Checking", SgbAllAlgorithm::kBoundsChecking},
      {"on-the-fly Index", SgbAllAlgorithm::kGroupsIndex},
  };
  const std::pair<const char*, OverlapClause> clauses[] = {
      {"JOIN-ANY", OverlapClause::kJoinAny},
      {"ELIMINATE", OverlapClause::kEliminate},
      {"FORM-NEW-GROUP", OverlapClause::kFormNewGroup},
  };

  std::printf("Table 1 reproduction: SGB-All runtime growth (L-inf)\n");
  std::printf("sizes:");
  for (const size_t n : sizes) std::printf(" %zu", n);
  std::printf("  (slope = log2 runtime ratio per size doubling)\n\n");
  std::printf("%-18s %-16s %12s %12s %12s %12s %8s\n", "algorithm", "clause",
              "t(n1) ms", "t(n2) ms", "t(n3) ms", "t(n4) ms", "slope");

  for (const auto& [algo_name, algorithm] : algos) {
    for (const auto& [clause_name, clause] : clauses) {
      std::vector<double> times;
      for (const size_t n : sizes) {
        const auto pts = UniformPoints(n, 10.0, 77);
        times.push_back(TimeRun(pts, algorithm, clause));
      }
      // Average slope over the last doublings (the first is noisy).
      double slope_sum = 0;
      int slope_count = 0;
      for (size_t i = 1; i < times.size(); ++i) {
        if (times[i - 1] <= 0) continue;
        slope_sum += std::log2(times[i] / times[i - 1]);
        ++slope_count;
      }
      const double slope = slope_count > 0 ? slope_sum / slope_count : 0.0;
      std::printf("%-18s %-16s %12.2f %12.2f %12.2f %12.2f %8.2f\n",
                  algo_name, clause_name, times[0] * 1e3, times[1] * 1e3,
                  times[2] * 1e3, times[3] * 1e3, slope);
    }
  }
  std::printf(
      "\nexpected slopes: All-Pairs ~2 (n^2); Bounds-Checking ~2 when "
      "|G| grows with n (n|G|); Index ~1 (n log|G|).\n");
  sgb::bench::ExportMetricsSnapshot("bench_table1_complexity");
  return 0;
}
