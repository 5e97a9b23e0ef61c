// Reference computations that check the engine's results. None of them
// calls into the engine: they work on the benchmark's own copy of the
// generated rows. Each check returns an empty string when the result is
// correct and a one-line reason otherwise.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Dist { kL2, kLinf };

/// A point with up to three coordinates; `dims` says how many are used.
using Vec3 = std::array<double, 3>;

/// Relative slack on ε for the SGB checks: the engine and the reference
/// may round a distance differently, so a pair whose distance lies within
/// this share of ε is allowed either way.
inline constexpr double kEpsSlack = 1e-9;

bool Within(const Vec3& a, const Vec3& b, int dims, Dist dist, double eps);

/// Connected components of the ε-graph over `pts`, by a grid-bucketed
/// union-find (cells of side ε). Returns a dense component id per point.
std::vector<uint32_t> Components(const std::vector<Vec3>& pts, int dims,
                                 Dist dist, double eps);

size_t CountComponents(const std::vector<uint32_t>& labels);

/// Reference for one SGB-Any statement: components at ε(1-slack) and
/// ε(1+slack). A correct grouping is a coarsening of the first and a
/// refinement of the second.
struct AnyReference {
  std::vector<uint32_t> tight;
  std::vector<uint32_t> loose;
  size_t loose_count = 0;
};
AnyReference MakeAnyReference(const std::vector<Vec3>& pts, int dims,
                              Dist dist, double eps);

/// `groups` lists, per output group, the input row indices of its members
/// (translated from the engine's List_ID output).
std::string CheckAnyGroups(const std::vector<std::vector<uint32_t>>& groups,
                           size_t n, const AnyReference& ref);

/// Same check when the engine reports only each group's size: the group
/// count lies between the loose and tight component counts and the sizes
/// sum to n.
std::string CheckAnyCounts(const std::vector<int64_t>& sizes, size_t n,
                           const AnyReference& ref);

enum class Overlap { kJoinAny, kEliminate, kFormNewGroup };

/// SGB-All: groups are disjoint, every group's members are pairwise within
/// ε(1+slack), JOIN-ANY and FORM-NEW-GROUP cover all n rows, and there are
/// at least as many groups as loose SGB-Any components. ELIMINATE has no
/// arbitration, so its result is checked exactly against
/// EliminateGroups(): the same groups, and grouped plus eliminated rows
/// equal n.
/// `eliminate` is the canonical EliminateGroups() result, required for
/// ELIMINATE and ignored otherwise.
std::string CheckAllGroups(
    const std::vector<std::vector<uint32_t>>& groups,
    const std::vector<Vec3>& pts, int dims, Dist dist, double eps,
    Overlap overlap, size_t loose_components,
    const std::vector<std::vector<uint32_t>>* eliminate = nullptr);

/// Groups with sorted members, in sorted order, for exact comparison.
std::vector<std::vector<uint32_t>> CanonicalGroups(
    std::vector<std::vector<uint32_t>> groups);

/// The paper's SGB-All with ON-OVERLAP ELIMINATE (Procedures 3 and 6),
/// computed over `pts` in input order with a grid of current members: a
/// point within ε of every member of exactly one group joins it, of none
/// starts a group, of two or more is eliminated; members of partially
/// matching groups that lie within ε of the point are eliminated too.
std::vector<std::vector<uint32_t>> EliminateGroups(const std::vector<Vec3>& pts,
                                                   int dims, Dist dist,
                                                   double eps);

/// SGB-All when only group sizes are reported.
std::string CheckAllCounts(const std::vector<int64_t>& sizes, size_t n,
                           Overlap overlap, size_t loose_components);

/// A continuous query's window close: `groups` is the group count of the
/// window_closed event, `pts` the rows the watermark model says reached the
/// window. SGB-Any must report the component count (between the loose and
/// tight counts); SGB-All at least the loose component count.
std::string CheckWindowClose(const std::vector<Vec3>& pts, double eps,
                             bool any, int64_t groups);

/// Parses the engine's List_ID / array_agg rendering ("{3,1,2}") into ids.
bool ParseIdList(const std::string& text, std::vector<int64_t>* ids);

/// Relative-or-absolute closeness for reported sums and averages.
bool Close(double a, double b, double rel = 1e-9);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
