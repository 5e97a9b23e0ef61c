#include "core/sgb_types.h"

namespace sgb::core {

const char* ToString(OverlapClause clause) {
  switch (clause) {
    case OverlapClause::kJoinAny:
      return "JOIN-ANY";
    case OverlapClause::kEliminate:
      return "ELIMINATE";
    case OverlapClause::kFormNewGroup:
      return "FORM-NEW-GROUP";
  }
  return "?";
}

const char* ToString(SgbAllAlgorithm algorithm) {
  switch (algorithm) {
    case SgbAllAlgorithm::kAllPairs:
      return "All-Pairs";
    case SgbAllAlgorithm::kBoundsChecking:
      return "Bounds-Checking";
    case SgbAllAlgorithm::kIndexed:
      return "group grid";
    case SgbAllAlgorithm::kGroupsIndex:
      return "on-the-fly Index";
  }
  return "?";
}

const char* ToString(SgbAnyAlgorithm algorithm) {
  switch (algorithm) {
    case SgbAnyAlgorithm::kAllPairs:
      return "All-Pairs";
    case SgbAnyAlgorithm::kIndexed:
      return "clique-cell grid";
    case SgbAnyAlgorithm::kPointsIndex:
      return "on-the-fly Index";
  }
  return "?";
}

size_t JoinAnyPick(uint64_t seed, size_t point_index, size_t num_candidates) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (point_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<size_t>(z % num_candidates);
}

std::vector<std::vector<size_t>> Grouping::GroupsAsLists() const {
  std::vector<std::vector<size_t>> groups(num_groups);
  for (size_t i = 0; i < group_of.size(); ++i) {
    if (group_of[i] != kEliminated) groups[group_of[i]].push_back(i);
  }
  return groups;
}

std::vector<size_t> Grouping::GroupSizes() const {
  std::vector<size_t> sizes(num_groups, 0);
  for (const size_t g : group_of) {
    if (g != kEliminated) ++sizes[g];
  }
  return sizes;
}

size_t Grouping::NumEliminated() const {
  size_t count = 0;
  for (const size_t g : group_of) {
    if (g == kEliminated) ++count;
  }
  return count;
}

}  // namespace sgb::core
