#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

struct Forest {
  std::vector<uint32_t> parent;
  explicit Forest(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }
  uint32_t Find(uint32_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

struct CellKey {
  int64_t c[3];
  bool operator==(const CellKey& o) const {
    return c[0] == o.c[0] && c[1] == o.c[1] && c[2] == o.c[2];
  }
};
struct CellHash {
  size_t operator()(const CellKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (int64_t v : k.c) {
      h ^= static_cast<uint64_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

}  // namespace

bool Within(const Vec3& a, const Vec3& b, int dims, Dist dist, double eps) {
  if (dist == Dist::kLinf) {
    for (int d = 0; d < dims; ++d) {
      if (std::fabs(a[d] - b[d]) > eps) return false;
    }
    return true;
  }
  double s = 0.0;
  for (int d = 0; d < dims; ++d) s += (a[d] - b[d]) * (a[d] - b[d]);
  return s <= eps * eps;
}

std::vector<uint32_t> Components(const std::vector<Vec3>& pts, int dims,
                                 Dist dist, double eps) {
  const size_t n = pts.size();
  Forest forest(n);
  const double side = eps > 0.0 ? eps : 1.0;
  std::unordered_map<CellKey, std::vector<uint32_t>, CellHash> cells;
  std::vector<CellKey> key_of(n);
  for (size_t i = 0; i < n; ++i) {
    CellKey k{{0, 0, 0}};
    for (int d = 0; d < dims; ++d) {
      k.c[d] = static_cast<int64_t>(std::floor(pts[i][d] / side));
    }
    key_of[i] = k;
    cells[k].push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < n; ++i) {
    const CellKey& k = key_of[i];
    const int span2 = dims >= 2 ? 1 : 0;
    const int span3 = dims >= 3 ? 1 : 0;
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -span2; dy <= span2; ++dy) {
        for (int dz = -span3; dz <= span3; ++dz) {
          const CellKey nk{{k.c[0] + dx, k.c[1] + dy, k.c[2] + dz}};
          auto it = cells.find(nk);
          if (it == cells.end()) continue;
          for (uint32_t j : it->second) {
            if (j >= i) continue;
            if (forest.Find(static_cast<uint32_t>(i)) == forest.Find(j)) {
              continue;
            }
            if (Within(pts[i], pts[j], dims, dist, eps)) {
              forest.Union(static_cast<uint32_t>(i), j);
            }
          }
        }
      }
    }
  }
  std::vector<uint32_t> label(n);
  std::unordered_map<uint32_t, uint32_t> dense;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t root = forest.Find(static_cast<uint32_t>(i));
    auto [it, inserted] =
        dense.emplace(root, static_cast<uint32_t>(dense.size()));
    label[i] = it->second;
  }
  return label;
}

size_t CountComponents(const std::vector<uint32_t>& labels) {
  uint32_t max_label = 0;
  for (uint32_t l : labels) max_label = std::max(max_label, l);
  return labels.empty() ? 0 : max_label + 1;
}

AnyReference MakeAnyReference(const std::vector<Vec3>& pts, int dims,
                              Dist dist, double eps) {
  AnyReference ref;
  ref.tight = Components(pts, dims, dist, eps * (1.0 - kEpsSlack));
  ref.loose = Components(pts, dims, dist, eps * (1.0 + kEpsSlack));
  ref.loose_count = CountComponents(ref.loose);
  return ref;
}

std::string CheckAnyGroups(const std::vector<std::vector<uint32_t>>& groups,
                           size_t n, const AnyReference& ref) {
  std::vector<int64_t> group_of(n, -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) return "SGB-Any: empty group";
    for (uint32_t i : groups[g]) {
      if (i >= n) return "SGB-Any: unknown row id";
      if (group_of[i] >= 0) return "SGB-Any: row in two groups";
      group_of[i] = static_cast<int64_t>(g);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (group_of[i] < 0) return "SGB-Any: row missing from every group";
  }
  // Refinement of the loose components: one loose label per group.
  for (const auto& members : groups) {
    for (uint32_t i : members) {
      if (ref.loose[i] != ref.loose[members[0]]) {
        return "SGB-Any: group joins rows of two components";
      }
    }
  }
  // Coarsening of the tight components: one group per tight label.
  std::vector<int64_t> group_of_tight(CountComponents(ref.tight), -1);
  for (size_t i = 0; i < n; ++i) {
    int64_t& g = group_of_tight[ref.tight[i]];
    if (g < 0) g = group_of[i];
    if (g != group_of[i]) return "SGB-Any: component split across groups";
  }
  return "";
}

std::string CheckAnyCounts(const std::vector<int64_t>& sizes, size_t n,
                           const AnyReference& ref) {
  int64_t total = 0;
  for (int64_t s : sizes) {
    if (s <= 0) return "SGB-Any: empty group";
    total += s;
  }
  if (total != static_cast<int64_t>(n)) return "SGB-Any: sizes do not sum to n";
  if (sizes.size() < ref.loose_count ||
      sizes.size() > CountComponents(ref.tight)) {
    return "SGB-Any: group count differs from the component count";
  }
  return "";
}

std::vector<std::vector<uint32_t>> EliminateGroups(const std::vector<Vec3>& pts,
                                                   int dims, Dist dist,
                                                   double eps) {
  const double side = eps > 0.0 ? eps : 1.0;
  auto key = [&](const Vec3& p) {
    CellKey k{{0, 0, 0}};
    for (int d = 0; d < dims; ++d) {
      k.c[d] = static_cast<int64_t>(std::floor(p[d] / side));
    }
    return k;
  };
  std::vector<std::vector<uint32_t>> members;  // per group, live members
  std::vector<int64_t> group_of(pts.size(), -1);
  std::unordered_map<CellKey, std::vector<uint32_t>, CellHash> cells;
  std::unordered_map<int64_t, size_t> matches;
  for (size_t i = 0; i < pts.size(); ++i) {
    const CellKey k = key(pts[i]);
    matches.clear();
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = (dims >= 2 ? -1 : 0); dy <= (dims >= 2 ? 1 : 0); ++dy) {
        for (int dz = (dims >= 3 ? -1 : 0); dz <= (dims >= 3 ? 1 : 0); ++dz) {
          auto it = cells.find(CellKey{{k.c[0] + dx, k.c[1] + dy, k.c[2] + dz}});
          if (it == cells.end()) continue;
          for (uint32_t j : it->second) {
            if (group_of[j] >= 0 && Within(pts[i], pts[j], dims, dist, eps)) {
              ++matches[group_of[j]];
            }
          }
        }
      }
    }
    std::vector<int64_t> candidates, partial;
    for (const auto& [g, m] : matches) {
      (m == members[g].size() ? candidates : partial).push_back(g);
    }
    if (candidates.size() <= 1) {
      int64_t g = candidates.empty() ? static_cast<int64_t>(members.size())
                                     : candidates[0];
      if (candidates.empty()) members.emplace_back();
      members[g].push_back(static_cast<uint32_t>(i));
      group_of[i] = g;
      cells[k].push_back(static_cast<uint32_t>(i));
    }
    for (int64_t g : partial) {
      std::vector<uint32_t> kept;
      for (uint32_t m : members[g]) {
        if (Within(pts[i], pts[m], dims, dist, eps)) {
          group_of[m] = -1;
        } else {
          kept.push_back(m);
        }
      }
      members[g] = std::move(kept);
    }
  }
  std::vector<std::vector<uint32_t>> out;
  for (auto& m : members) {
    if (!m.empty()) out.push_back(std::move(m));
  }
  return out;
}

std::vector<std::vector<uint32_t>> CanonicalGroups(
    std::vector<std::vector<uint32_t>> groups) {
  for (auto& m : groups) std::sort(m.begin(), m.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

std::string CheckAllGroups(const std::vector<std::vector<uint32_t>>& groups,
                           const std::vector<Vec3>& pts, int dims, Dist dist,
                           double eps, Overlap overlap,
                           size_t loose_components,
                           const std::vector<std::vector<uint32_t>>* eliminate) {
  const size_t n = pts.size();
  if (overlap == Overlap::kEliminate &&
      (eliminate == nullptr || CanonicalGroups(groups) != *eliminate)) {
    return "SGB-All ELIMINATE: groups differ from the reference";
  }
  std::vector<char> seen(n, 0);
  size_t grouped = 0;
  const double loose = eps * (1.0 + kEpsSlack);
  for (const auto& members : groups) {
    if (members.empty()) return "SGB-All: empty group";
    for (size_t a = 0; a < members.size(); ++a) {
      const uint32_t i = members[a];
      if (i >= n) return "SGB-All: unknown row id";
      if (seen[i]) return "SGB-All: row in two groups";
      seen[i] = 1;
      ++grouped;
      for (size_t b = 0; b < a; ++b) {
        if (!Within(pts[i], pts[members[b]], dims, dist, loose)) {
          return "SGB-All: two members of a group are farther than eps";
        }
      }
    }
  }
  if (overlap != Overlap::kEliminate && grouped != n) {
    return "SGB-All: grouped rows do not cover the input";
  }
  if (groups.size() < loose_components) {
    return "SGB-All: fewer groups than SGB-Any components";
  }
  return "";
}

std::string CheckAllCounts(const std::vector<int64_t>& sizes, size_t n,
                           Overlap overlap, size_t loose_components) {
  int64_t total = 0;
  for (int64_t s : sizes) {
    if (s <= 0) return "SGB-All: empty group";
    total += s;
  }
  if (total > static_cast<int64_t>(n)) return "SGB-All: more rows than input";
  if (overlap != Overlap::kEliminate && total != static_cast<int64_t>(n)) {
    return "SGB-All: grouped rows do not cover the input";
  }
  if (sizes.size() < loose_components) {
    return "SGB-All: fewer groups than SGB-Any components";
  }
  return "";
}

std::string CheckWindowClose(const std::vector<Vec3>& pts, double eps,
                             bool any, int64_t groups) {
  const AnyReference ref = MakeAnyReference(pts, 2, Dist::kL2, eps);
  const auto g = static_cast<size_t>(groups < 0 ? 0 : groups);
  if (groups < 0 || g < ref.loose_count) {
    return "window has fewer groups than components";
  }
  if (any && g > CountComponents(ref.tight)) {
    return "window has more groups than components";
  }
  return "";
}

bool ParseIdList(const std::string& text, std::vector<int64_t>* ids) {
  ids->clear();
  size_t i = 0;
  while (i < text.size() && (text[i] == '{' || text[i] == '[')) ++i;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ',' || text[i] == ' ')) ++i;
    if (i >= text.size() || text[i] == '}' || text[i] == ']') break;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str() + i, &end, 10);
    if (end == text.c_str() + i) return false;
    ids->push_back(v);
    i = static_cast<size_t>(end - text.c_str());
  }
  return true;
}

bool Close(double a, double b, double rel) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rel * scale;
}

}  // namespace perfbench
