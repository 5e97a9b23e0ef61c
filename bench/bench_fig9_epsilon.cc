// Figure 9: the effect of the similarity threshold ε (0.1 .. 0.9) on query
// runtime for the SGB-All variants (a: JOIN-ANY, b: ELIMINATE,
// c: FORM-NEW-GROUP) and SGB-Any (d), each under All-Pairs /
// Bounds-Checking / on-the-fly Index.
//
// Paper setup: 0.5M records, L2, runtimes on log scale; the index tier wins
// by ~2 orders of magnitude over All-Pairs and stays flat across ε.
// Here: Scaled(20000) uniform points in [0,1]^2 (SGB_BENCH_SCALE to grow).

#include "bench_common.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace {

using sgb::bench::Scaled;
using sgb::bench::SkewedPoints;
using sgb::core::OverlapClause;
using sgb::core::SgbAllAlgorithm;
using sgb::core::SgbAllOptions;
using sgb::core::SgbAnyAlgorithm;
using sgb::core::SgbAnyOptions;

const std::vector<sgb::geom::Point>& Dataset() {
  static const auto* pts =
      new std::vector<sgb::geom::Point>(SkewedPoints(Scaled(20000)));
  return *pts;
}

void BM_SgbAllEpsilon(benchmark::State& state, OverlapClause clause,
                      SgbAllAlgorithm algorithm) {
  const double epsilon = static_cast<double>(state.range(0)) / 10.0;
  SgbAllOptions options;
  options.epsilon = epsilon;
  options.metric = sgb::geom::Metric::kL2;
  options.on_overlap = clause;
  options.algorithm = algorithm;
  size_t groups = 0;
  sgb::core::SgbAllStats stats;
  for (auto _ : state) {
    stats = {};
    auto result = sgb::core::SgbAll(Dataset(), options, &stats);
    benchmark::DoNotOptimize(result);
    groups = result.value().num_groups;
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["eps"] = epsilon;
  state.counters["dist_comps"] =
      static_cast<double>(stats.distance_computations);
}

void BM_SgbAnyEpsilon(benchmark::State& state, SgbAnyAlgorithm algorithm) {
  const double epsilon = static_cast<double>(state.range(0)) / 10.0;
  SgbAnyOptions options;
  options.epsilon = epsilon;
  options.metric = sgb::geom::Metric::kL2;
  options.algorithm = algorithm;
  size_t groups = 0;
  sgb::core::SgbAnyStats stats;
  for (auto _ : state) {
    stats = {};
    auto result = sgb::core::SgbAny(Dataset(), options, &stats);
    benchmark::DoNotOptimize(result);
    groups = result.value().num_groups;
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["eps"] = epsilon;
  state.counters["dist_comps"] =
      static_cast<double>(stats.distance_computations);
}

void RegisterAll() {
  struct ClauseRow {
    const char* figure;
    OverlapClause clause;
  };
  const ClauseRow rows[] = {
      {"Fig9a_JoinAny", OverlapClause::kJoinAny},
      {"Fig9b_Eliminate", OverlapClause::kEliminate},
      {"Fig9c_FormNewGroup", OverlapClause::kFormNewGroup},
  };
  struct AlgoRow {
    const char* name;
    SgbAllAlgorithm algorithm;
  };
  const AlgoRow algos[] = {
      {"AllPairs", SgbAllAlgorithm::kAllPairs},
      {"BoundsChecking", SgbAllAlgorithm::kBoundsChecking},
      // The paper's Groups_IX R-tree (Procedure 5), not the engine's grid.
      {"Index", SgbAllAlgorithm::kGroupsIndex},
  };
  for (const auto& row : rows) {
    for (const auto& algo : algos) {
      auto* b = benchmark::RegisterBenchmark(
          (std::string(row.figure) + "/" + algo.name).c_str(),
          [clause = row.clause, algorithm = algo.algorithm](
              benchmark::State& state) {
            BM_SgbAllEpsilon(state, clause, algorithm);
          });
      b->DenseRange(1, 9, 1)->Unit(benchmark::kMillisecond);
    }
  }
  for (const auto& [name, algorithm] :
       std::initializer_list<std::pair<const char*, SgbAnyAlgorithm>>{
           {"AllPairs", SgbAnyAlgorithm::kAllPairs},
           // The paper's Points_IX R-tree (Procedure 8), not the engine's
           // grid: this series reproduces Figure 9d.
           {"Index", SgbAnyAlgorithm::kPointsIndex}}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig9d_Any/") + name).c_str(),
        [algorithm = algorithm](benchmark::State& state) {
          BM_SgbAnyEpsilon(state, algorithm);
        });
    b->DenseRange(1, 9, 1)->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sgb::bench::ExportMetricsSnapshot("bench_fig9_epsilon");
  return 0;
}
