#ifndef SGB_CORE_ARRIVAL_REPLAY_H_
#define SGB_CORE_ARRIVAL_REPLAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/sgb_types.h"
#include "geom/point.h"

namespace sgb {
class QueryContext;  // common/query_context.h
}

namespace sgb::core {

/// Which similarity group-by a replay reproduces the deltas of.
enum class ReplayKind { kAny, kAll };

/// The per-arrival deltas of one streaming window (docs/STREAMING.md
/// "Delta events"), recomputed when the window closes.
struct ArrivalReplay {
  /// Per arrival, in arrival order: how many distinct components of the
  /// earlier arrivals its ε-neighbours belonged to (0: group_formed,
  /// 1: member_added, more: groups_merged).
  std::vector<uint32_t> touched;
  /// Per arrival: a component id (< the number of arrivals) once every
  /// arrival has linked in. Equal ids mean one component.
  std::vector<uint32_t> component;
};

/// Replays `arrivals` in order through a union-find. Each arrival first
/// counts the distinct components its ε-neighbours (under `metric`) lie
/// in, then links to every earlier arrival it is adjacent to: its
/// ε-neighbours for SGB-Any, its 3ε-L∞ neighbours for SGB-All. So the
/// components are the ε-components (exactly SGB-Any's groups) or the 3ε
/// interaction components (which SGB-All's groups never straddle).
///
/// Neighbours come from the sorted clique-cell grid of
/// index::SimilarityComponents, with the block kernels' predicate
/// (non-finite coordinates included). The earlier points of a clique cell
/// are always in one component, so a neighbour cell costs one Find, its
/// scan is skipped when that component was already counted, and it stops
/// at the first match.
///
/// Fails on cancellation, a budget breach of `ctx` (nullable; the grids
/// are charged to it) or an injected grid fault.
Result<ArrivalReplay> ReplayArrivals(std::span<const geom::Point> arrivals,
                                     geom::Metric metric, double epsilon,
                                     ReplayKind kind,
                                     QueryContext* ctx = nullptr);

/// The O(n) cross-check of a window close: `batch` labels the arrivals in
/// the order `order` (entry k is arrival order[k]). Under kAny its groups
/// must be exactly the replay's components; under kAll every group must
/// lie inside one component (eliminated points are skipped).
bool BatchMatchesReplay(const Grouping& batch, std::span<const size_t> order,
                        const ArrivalReplay& replay, ReplayKind kind);

}  // namespace sgb::core

#endif  // SGB_CORE_ARRIVAL_REPLAY_H_
