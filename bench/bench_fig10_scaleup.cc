// Figure 10: the effect of the data size (TPC-H scale factor) on runtime,
// ε fixed to 0.2.
//  a-c: SGB-All {JOIN-ANY, ELIMINATE, FORM-NEW-GROUP}, Bounds-Checking vs
//       on-the-fly Index, SF 1..60 (All-Pairs omitted, as in the paper:
//       its runtime grows quadratically).
//  d:   SGB-Any, All-Pairs vs on-the-fly Index, SF 1..32.
//
// Paper setup: SGB1's grouping attributes (account balance x total spend)
// at dbgen scale. Here SF maps to Scaled(500) x SF skewed attribute pairs
// (hotspot mixture mirroring TPC-H value skew), so the curve
// shapes — linear-ish index growth, superlinear bounds-checking growth,
// quadratic All-Pairs growth — are preserved.

#include <map>

#include "bench_common.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace {

using sgb::bench::Scaled;

using sgb::core::OverlapClause;
using sgb::core::SgbAllAlgorithm;
using sgb::core::SgbAllOptions;
using sgb::core::SgbAnyAlgorithm;
using sgb::core::SgbAnyOptions;

constexpr double kEpsilon = 0.2;

const std::vector<sgb::geom::Point>& DatasetForSf(int64_t sf) {
  static auto* cache =
      new std::map<int64_t, std::vector<sgb::geom::Point>>();
  auto it = cache->find(sf);
  if (it == cache->end()) {
    it = cache
             ->emplace(sf, sgb::bench::SkewedPoints(
                               Scaled(500) * static_cast<size_t>(sf),
                               /*extent=*/40.0, /*hotspots=*/400,
                               /*stddev=*/0.5,
                               /*seed=*/1000 + static_cast<uint64_t>(sf)))
             .first;
  }
  return it->second;
}

void BM_SgbAllScale(benchmark::State& state, OverlapClause clause,
                    SgbAllAlgorithm algorithm, int dop = 1) {
  const int64_t sf = state.range(0);
  const auto& pts = DatasetForSf(sf);
  SgbAllOptions options;
  options.epsilon = kEpsilon;
  options.metric = sgb::geom::Metric::kL2;
  options.on_overlap = clause;
  options.algorithm = algorithm;
  options.degree_of_parallelism = dop;
  size_t groups = 0;
  sgb::core::SgbAllStats stats;
  for (auto _ : state) {
    stats = {};
    auto result = sgb::core::SgbAll(pts, options, &stats);
    benchmark::DoNotOptimize(result);
    groups = result.value().num_groups;
  }
  state.counters["rows"] = static_cast<double>(pts.size());
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["dist_comps"] =
      static_cast<double>(stats.distance_computations);
}

void BM_SgbAnyScale(benchmark::State& state, SgbAnyAlgorithm algorithm,
                    int dop = 1) {
  const int64_t sf = state.range(0);
  const auto& pts = DatasetForSf(sf);
  SgbAnyOptions options;
  options.epsilon = kEpsilon;
  options.metric = sgb::geom::Metric::kL2;
  options.algorithm = algorithm;
  options.degree_of_parallelism = dop;
  size_t groups = 0;
  sgb::core::SgbAnyStats stats;
  for (auto _ : state) {
    stats = {};
    auto result = sgb::core::SgbAny(pts, options, &stats);
    benchmark::DoNotOptimize(result);
    groups = result.value().num_groups;
  }
  state.counters["rows"] = static_cast<double>(pts.size());
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["dist_comps"] =
      static_cast<double>(stats.distance_computations);
}

void RegisterAll() {
  const std::pair<const char*, OverlapClause> figures[] = {
      {"Fig10a_JoinAny", OverlapClause::kJoinAny},
      {"Fig10b_Eliminate", OverlapClause::kEliminate},
      {"Fig10c_FormNewGroup", OverlapClause::kFormNewGroup},
  };
  const std::pair<const char*, SgbAllAlgorithm> algos[] = {
      {"BoundsChecking", SgbAllAlgorithm::kBoundsChecking},
      // The paper's Groups_IX R-tree (Procedure 5), not the engine's grid.
      {"Index", SgbAllAlgorithm::kGroupsIndex},
  };
  const std::vector<int64_t> sf_all = {1, 2, 4, 8, 16, 32, 60};
  const std::vector<int64_t> sf_any = {1, 2, 4, 8, 16, 32};

  for (const auto& [figure, clause] : figures) {
    for (const auto& [name, algorithm] : algos) {
      auto* b = benchmark::RegisterBenchmark(
          (std::string(figure) + "/" + name).c_str(),
          [clause = clause, algorithm = algorithm](benchmark::State& state) {
            BM_SgbAllScale(state, clause, algorithm);
          });
      for (const int64_t sf : sf_all) b->Arg(sf);
      b->Unit(benchmark::kMillisecond);
    }
  }
  const std::pair<const char*, SgbAnyAlgorithm> any_algos[] = {
      {"AllPairs", SgbAnyAlgorithm::kAllPairs},
      // The paper's Points_IX R-tree (Procedure 8): Figure 10d.
      {"Index", SgbAnyAlgorithm::kPointsIndex},
  };
  for (const auto& [name, algorithm] : any_algos) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig10d_Any/") + name).c_str(),
        [algorithm = algorithm](benchmark::State& state) {
          BM_SgbAnyScale(state, algorithm);
        });
    for (const int64_t sf : sf_any) b->Arg(sf);
    b->Unit(benchmark::kMillisecond);
  }

  // Parallel dop sweep (docs/PARALLELISM.md): fixed data size, dop
  // {1, 2, 4, 8}; both run the engine's tier (SGB-All's group grid,
  // SGB-Any's clique-cell grid). SF 200 ~ Scaled(100k) rows, so at the
  // default bench scale this is the n=100k speedup measurement; serial
  // dop=1 is the
  // baseline the speedup is computed against. Results are identical to the
  // serial runs — only the wall time changes.
  const std::vector<int64_t> dops = {1, 2, 4, 8};
  {
    auto* b = benchmark::RegisterBenchmark(
        "Fig10p_AllParallel/Index",
        [](benchmark::State& state) {
          BM_SgbAllScale(state, OverlapClause::kJoinAny,
                         SgbAllAlgorithm::kIndexed,
                         static_cast<int>(state.range(1)));
        });
    for (const int64_t dop : dops) b->Args({200, dop});
    b->ArgNames({"sf", "dop"});
    b->Unit(benchmark::kMillisecond);
  }
  {
    auto* b = benchmark::RegisterBenchmark(
        "Fig10p_AnyParallel/Index",
        [](benchmark::State& state) {
          BM_SgbAnyScale(state, SgbAnyAlgorithm::kIndexed,
                         static_cast<int>(state.range(1)));
        });
    for (const int64_t dop : dops) b->Args({200, dop});
    b->ArgNames({"sf", "dop"});
    b->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sgb::bench::ExportMetricsSnapshot("bench_fig10_scaleup");
  return 0;
}
