// Ablation benches for the design choices DESIGN.md calls out:
//  1. ε-neighbour substrate (SGB-Any's inner loop): streaming R-tree
//     window queries vs. the clique-cell grid's component pass vs. a
//     linear scan, on uniform and clustered (check-in-like) data.
//  2. R-tree node capacity (Guttman's M) for the SGB-All Groups_IX.
//  3. Hull-refinement cost: SGB-All bounds-checking under L2 (hull test
//     active) vs. L∞ (rectangle test exact) on identical data.

#include <map>

#include "bench_common.h"
#include "core/sgb_all.h"
#include "common/thread_pool.h"
#include "index/grid_partition.h"
#include "index/rtree.h"
#include "workload/checkin.h"

namespace {

using sgb::bench::Scaled;
using sgb::bench::UniformPoints;
using sgb::geom::Point;
using sgb::geom::Rect;

constexpr double kEpsilon = 0.2;

const std::vector<Point>& Data(bool clustered) {
  static auto* cache = new std::map<bool, std::vector<Point>>();
  auto it = cache->find(clustered);
  if (it == cache->end()) {
    const size_t n = Scaled(20000);
    if (clustered) {
      it = cache
               ->emplace(true, sgb::workload::GenerateCheckins(
                                   sgb::workload::BrightkiteLike(n)))
               .first;
    } else {
      it = cache->emplace(false, UniformPoints(n, 50.0)).first;
    }
  }
  return it->second;
}

/// Streaming ε-neighbour queries, the SGB-Any access pattern: query the
/// window around each point, then insert it.
void BM_WindowQueriesRTree(benchmark::State& state, bool clustered) {
  const auto& pts = Data(clustered);
  size_t hits = 0;
  for (auto _ : state) {
    sgb::index::RTree tree;
    hits = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      tree.Search(Rect::Around(pts[i], kEpsilon),
                  [&hits](const Rect&, uint64_t) { ++hits; });
      tree.Insert(pts[i], i);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["pairs"] = static_cast<double>(hits);
}

/// The clique-cell grid answering the same question in bulk: the
/// components of the L∞ ε-graph (the R-tree's window is the L∞ ball).
void BM_ComponentsGrid(benchmark::State& state, bool clustered) {
  const auto& pts = Data(clustered);
  size_t components = 0;
  for (auto _ : state) {
    components = sgb::index::SimilarityComponents(
                     pts, sgb::geom::Metric::kLInf, kEpsilon, /*dop=*/1,
                     sgb::ThreadPool::Default(), nullptr)
                     .num_components;
    benchmark::DoNotOptimize(components);
  }
  state.counters["components"] = static_cast<double>(components);
}

void BM_WindowQueriesLinear(benchmark::State& state, bool clustered) {
  const auto& pts = Data(clustered);
  // Linear scan is quadratic: run it on a prefix and report scaled cost.
  const size_t n = std::min<size_t>(pts.size(), Scaled(4000));
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const Rect window = Rect::Around(pts[i], kEpsilon);
      for (size_t j = 0; j < i; ++j) {
        if (window.Contains(pts[j])) ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["rows"] = static_cast<double>(n);
}

void BM_RTreeCapacity(benchmark::State& state) {
  const auto& pts = Data(/*clustered=*/true);
  const size_t capacity = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    sgb::index::RTree tree(capacity);
    size_t hits = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      tree.Search(Rect::Around(pts[i], kEpsilon),
                  [&hits](const Rect&, uint64_t) { ++hits; });
      tree.Insert(pts[i], i);
    }
    benchmark::DoNotOptimize(hits);
  }
}

void BM_HullRefinementCost(benchmark::State& state, bool use_l2) {
  const auto& pts = Data(/*clustered=*/true);
  sgb::core::SgbAllOptions options;
  options.epsilon = kEpsilon;
  options.metric =
      use_l2 ? sgb::geom::Metric::kL2 : sgb::geom::Metric::kLInf;
  options.algorithm = sgb::core::SgbAllAlgorithm::kIndexed;
  sgb::core::SgbAllStats last;
  for (auto _ : state) {
    sgb::core::SgbAllStats stats;  // per-run, not accumulated
    auto result = sgb::core::SgbAll(pts, options, &stats);
    benchmark::DoNotOptimize(result);
    last = stats;
  }
  state.counters["hull_tests"] = static_cast<double>(last.hull_tests);
  state.counters["distance_computations"] =
      static_cast<double>(last.distance_computations);
}

}  // namespace

int main(int argc, char** argv) {
  for (const bool clustered : {false, true}) {
    const std::string tag = clustered ? "Clustered" : "Uniform";
    benchmark::RegisterBenchmark(
        ("Ablation_Index/RTree/" + tag).c_str(),
        [clustered](benchmark::State& s) {
          BM_WindowQueriesRTree(s, clustered);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Ablation_Index/Grid/" + tag).c_str(),
        [clustered](benchmark::State& s) {
          BM_ComponentsGrid(s, clustered);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Ablation_Index/LinearScanPrefix/" + tag).c_str(),
        [clustered](benchmark::State& s) {
          BM_WindowQueriesLinear(s, clustered);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("Ablation_RTreeCapacity", BM_RTreeCapacity)
      ->Arg(4)
      ->Arg(8)
      ->Arg(16)
      ->Arg(32)
      ->Arg(64)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Ablation_Hull/L2",
                               [](benchmark::State& s) {
                                 BM_HullRefinementCost(s, true);
                               })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("Ablation_Hull/LInf",
                               [](benchmark::State& s) {
                                 BM_HullRefinementCost(s, false);
                               })
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
