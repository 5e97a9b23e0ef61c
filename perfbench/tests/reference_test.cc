// Tests of the benchmark's reference checks: each accepts a correct result
// and rejects a corrupted one (two groups merged, a point moved, a row
// dropped). Run with `python3 perfbench/run.py --test`; exits non-zero on
// the first failing expectation set.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "components.h"
#include "inputs.h"
#include "reference.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ExpectPass(const std::string& problem, const std::string& what) {
  Expect(problem.empty(), what + " should pass, got: " + problem);
}

void ExpectReject(const std::string& problem, const std::string& what) {
  Expect(!problem.empty(), what + " should be rejected");
}

std::vector<Vec3> Points(size_t n, uint64_t seed, int dims) {
  std::vector<Vec3> pts;
  for (const Checkin& c : GenerateCheckins(n, seed)) {
    pts.push_back({c.x, c.y, dims == 3 ? c.alt : 0.0});
  }
  return pts;
}

/// Brute-force ε-graph components, as a canonical label per point.
std::vector<uint32_t> BruteComponents(const std::vector<Vec3>& pts, int dims,
                                      Dist dist, double eps) {
  std::vector<uint32_t> parent(pts.size());
  std::iota(parent.begin(), parent.end(), 0u);
  std::function<uint32_t(uint32_t)> find = [&](uint32_t a) {
    return parent[a] == a ? a : parent[a] = find(parent[a]);
  };
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (Within(pts[i], pts[j], dims, dist, eps)) {
        parent[find(static_cast<uint32_t>(i))] = find(static_cast<uint32_t>(j));
      }
    }
  }
  std::vector<uint32_t> label(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) label[i] = find(static_cast<uint32_t>(i));
  return label;
}

bool SamePartition(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b) {
  std::map<uint32_t, uint32_t> ab, ba;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto x = ab.emplace(a[i], b[i]).first;
    const auto y = ba.emplace(b[i], a[i]).first;
    if (x->second != b[i] || y->second != a[i]) return false;
  }
  return true;
}

std::vector<std::vector<uint32_t>> GroupsOf(const std::vector<uint32_t>& l) {
  std::vector<std::vector<uint32_t>> groups(CountComponents(l));
  for (size_t i = 0; i < l.size(); ++i) {
    groups[l[i]].push_back(static_cast<uint32_t>(i));
  }
  return groups;
}

/// A valid SGB-All JOIN-ANY grouping: each point joins the first group
/// whose members are all within ε, else starts a new one.
std::vector<std::vector<uint32_t>> GreedyAll(const std::vector<Vec3>& pts,
                                             double eps) {
  std::vector<std::vector<uint32_t>> groups;
  for (size_t i = 0; i < pts.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      bool all = true;
      for (uint32_t m : g) all = all && Within(pts[i], pts[m], 2, Dist::kL2, eps);
      if (all) {
        g.push_back(static_cast<uint32_t>(i));
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({static_cast<uint32_t>(i)});
  }
  return groups;
}

/// Index of a group with at least two members, and of one in another
/// component.
size_t MultiMemberGroup(const std::vector<std::vector<uint32_t>>& g) {
  for (size_t i = 0; i < g.size(); ++i) {
    if (g[i].size() >= 2) return i;
  }
  return 0;
}

void TestComponentsMatchBruteForce() {
  for (int dims : {2, 3}) {
    for (Dist dist : {Dist::kL2, Dist::kLinf}) {
      const std::vector<Vec3> pts = Points(600, 3, dims);
      Expect(SamePartition(Components(pts, dims, dist, 0.08),
                           BruteComponents(pts, dims, dist, 0.08)),
             "grid components equal brute-force components");
    }
  }
}

void TestAnyChecks() {
  const double eps = 0.08;
  const std::vector<Vec3> pts = Points(1500, 5, 2);
  const AnyReference ref = MakeAnyReference(pts, 2, Dist::kL2, eps);
  const auto groups = GroupsOf(ref.loose);
  Expect(groups.size() >= 3, "test data has several components");
  ExpectPass(CheckAnyGroups(groups, pts.size(), ref), "SGB-Any groups");

  auto merged = groups;
  merged[0].insert(merged[0].end(), merged[1].begin(), merged[1].end());
  merged.erase(merged.begin() + 1);
  ExpectReject(CheckAnyGroups(merged, pts.size(), ref), "SGB-Any merged");

  auto dropped = groups;
  const size_t g = MultiMemberGroup(dropped);
  dropped[g].pop_back();
  ExpectReject(CheckAnyGroups(dropped, pts.size(), ref), "SGB-Any dropped");

  // A point moved far away is its own component in the data, but the
  // result still groups it with its old neighbours.
  std::vector<Vec3> moved = pts;
  moved[groups[g][0]][0] += 10.0;
  const AnyReference moved_ref = MakeAnyReference(moved, 2, Dist::kL2, eps);
  ExpectReject(CheckAnyGroups(groups, pts.size(), moved_ref), "SGB-Any moved");

  std::vector<int64_t> sizes;
  for (const auto& m : groups) sizes.push_back(static_cast<int64_t>(m.size()));
  ExpectPass(CheckAnyCounts(sizes, pts.size(), ref), "SGB-Any sizes");
  auto merged_sizes = sizes;
  merged_sizes[0] += merged_sizes[1];
  merged_sizes.erase(merged_sizes.begin() + 1);
  ExpectReject(CheckAnyCounts(merged_sizes, pts.size(), ref),
               "SGB-Any sizes merged");
  auto dropped_sizes = sizes;
  dropped_sizes[g] -= 1;
  ExpectReject(CheckAnyCounts(dropped_sizes, pts.size(), ref),
               "SGB-Any sizes dropped");
  ExpectReject(CheckAnyCounts(sizes, pts.size(), moved_ref),
               "SGB-Any sizes moved");
}

void TestAllChecks() {
  const double eps = 0.08;
  const std::vector<Vec3> pts = Points(800, 7, 2);
  const AnyReference ref = MakeAnyReference(pts, 2, Dist::kL2, eps);
  const auto groups = GreedyAll(pts, eps);
  for (Overlap o : {Overlap::kJoinAny, Overlap::kFormNewGroup}) {
    ExpectPass(CheckAllGroups(groups, pts, 2, Dist::kL2, eps, o,
                              ref.loose_count),
               "SGB-All groups");
  }
  // ELIMINATE is checked exactly against the reference procedure.
  const auto elim = EliminateGroups(pts, 2, Dist::kL2, eps);
  const auto canonical = CanonicalGroups(elim);
  ExpectPass(CheckAllGroups(elim, pts, 2, Dist::kL2, eps, Overlap::kEliminate,
                            ref.loose_count, &canonical),
             "SGB-All ELIMINATE groups");
  auto elim_dropped = elim;
  elim_dropped.pop_back();
  ExpectReject(CheckAllGroups(elim_dropped, pts, 2, Dist::kL2, eps,
                              Overlap::kEliminate, ref.loose_count, &canonical),
               "SGB-All ELIMINATE dropped");
  auto elim_merged = elim;
  elim_merged[0].insert(elim_merged[0].end(), elim_merged[1].begin(),
                        elim_merged[1].end());
  elim_merged.erase(elim_merged.begin() + 1);
  ExpectReject(CheckAllGroups(elim_merged, pts, 2, Dist::kL2, eps,
                              Overlap::kEliminate, ref.loose_count, &canonical),
               "SGB-All ELIMINATE merged");
  // Merge two groups of different components: members end up farther
  // apart than ε.
  size_t other = 1;
  while (other < groups.size() &&
         ref.loose[groups[other][0]] == ref.loose[groups[0][0]]) {
    ++other;
  }
  auto merged = groups;
  merged[0].insert(merged[0].end(), merged[other].begin(), merged[other].end());
  merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(other));
  ExpectReject(CheckAllGroups(merged, pts, 2, Dist::kL2, eps,
                              Overlap::kJoinAny, ref.loose_count),
               "SGB-All merged");

  auto dropped = groups;
  dropped[MultiMemberGroup(dropped)].pop_back();
  ExpectReject(CheckAllGroups(dropped, pts, 2, Dist::kL2, eps,
                              Overlap::kJoinAny, ref.loose_count),
               "SGB-All dropped");

  std::vector<Vec3> moved = pts;
  moved[groups[MultiMemberGroup(groups)][0]][1] += 10.0;
  ExpectReject(CheckAllGroups(groups, moved, 2, Dist::kL2, eps,
                              Overlap::kJoinAny, ref.loose_count),
               "SGB-All moved");

  std::vector<int64_t> sizes;
  for (const auto& m : groups) sizes.push_back(static_cast<int64_t>(m.size()));
  ExpectPass(CheckAllCounts(sizes, pts.size(), Overlap::kJoinAny,
                            ref.loose_count),
             "SGB-All sizes");
  auto dropped_sizes = sizes;
  dropped_sizes[0] -= 1;
  ExpectReject(CheckAllCounts(dropped_sizes, pts.size(), Overlap::kJoinAny,
                              ref.loose_count),
               "SGB-All sizes dropped");
  // Merging every group into one leaves fewer groups than components.
  const std::vector<int64_t> one = {static_cast<int64_t>(pts.size())};
  ExpectReject(CheckAllCounts(one, pts.size(), Overlap::kJoinAny,
                              ref.loose_count),
               "SGB-All sizes merged");
}

void TestWindowClose() {
  const double eps = 0.1;
  const std::vector<Vec3> pts = Points(500, 9, 2);
  const size_t comps =
      MakeAnyReference(pts, 2, Dist::kL2, eps).loose_count;
  const auto c = static_cast<int64_t>(comps);
  ExpectPass(CheckWindowClose(pts, eps, true, c), "window SGB-Any");
  ExpectReject(CheckWindowClose(pts, eps, true, c - 1), "window merged");
  ExpectReject(CheckWindowClose(pts, eps, true, c + 1), "window split");
  ExpectPass(CheckWindowClose(pts, eps, false, c + 5), "window SGB-All");
  ExpectReject(CheckWindowClose(pts, eps, false, c - 1),
               "window SGB-All merged");
  // A row dropped from the window: its components no longer match.
  std::vector<Vec3> fewer(pts.begin(), pts.end() - 1);
  const int64_t fewer_comps = static_cast<int64_t>(
      MakeAnyReference(fewer, 2, Dist::kL2, eps).loose_count);
  if (fewer_comps != c) {
    ExpectReject(CheckWindowClose(pts, eps, true, fewer_comps),
                 "window dropped row");
  }
}

void TestParseIdList() {
  std::vector<int64_t> ids;
  Expect(ParseIdList("{3,1,2}", &ids) && ids == std::vector<int64_t>{3, 1, 2},
         "parse {3,1,2}");
  Expect(ParseIdList("{}", &ids) && ids.empty(), "parse {}");
  Expect(!ParseIdList("{a}", &ids), "reject {a}");
}

// --- Every statement check of the SQL components ---------------------------

using sgb::engine::Row;
using sgb::engine::Table;
using sgb::engine::Value;

Table DropLastRow(const Table& t) {
  Table out(t.schema());
  for (size_t i = 0; i + 1 < t.NumRows(); ++i) (void)out.Append(t.rows()[i]);
  return out;
}

/// Rows 0 and 1 merged into one: id lists concatenated, numbers added.
Table MergeFirstRows(const Table& t) {
  Table out(t.schema());
  Row merged = t.rows()[0];
  const Row& second = t.rows()[1];
  for (size_t c = 0; c < merged.size(); ++c) {
    const Value& a = merged[c];
    const Value& b = second[c];
    if (a.type() == sgb::engine::DataType::kString) {
      std::string s = a.AsString();
      if (!s.empty() && s.back() == '}' && b.AsString().size() > 2) {
        s.pop_back();
        s += (s.size() > 1 ? "," : "") + b.AsString().substr(1);
      }
      merged[c] = Value::Str(s);
    } else if (a.type() == sgb::engine::DataType::kInt64) {
      merged[c] = Value::Int(a.AsInt() + b.AsInt());
    } else if (a.type() == sgb::engine::DataType::kDouble) {
      merged[c] = Value::Double(a.AsDouble() + b.AsDouble());
    }
  }
  (void)out.Append(merged);
  for (size_t i = 2; i < t.NumRows(); ++i) (void)out.Append(t.rows()[i]);
  return out;
}

/// Every number in row 0 moved by a large amount.
Table MoveFirstRow(const Table& t) {
  Table moved(t.schema());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    Row r = t.rows()[i];
    if (i == 0) {
      for (Value& v : r) {
        if (v.type() == sgb::engine::DataType::kInt64) {
          v = Value::Int(v.AsInt() + 1000000);
        } else if (v.type() == sgb::engine::DataType::kDouble) {
          v = Value::Double(v.AsDouble() + 1000000.0);
        }
      }
    }
    (void)moved.Append(r);
  }
  return moved;
}

void CheckStatements(const std::vector<Select>& selects,
                     const sgb::engine::Database& db,
                     sgb::engine::Session& session) {
  for (const Select& s : selects) {
    auto result = db.Query(session, s.sql);
    Expect(result.ok(), s.kind + " runs");
    if (!result.ok()) continue;
    const Table& t = result.value();
    ExpectPass(s.check(t), s.kind);
    if (t.NumRows() >= 1) ExpectReject(s.check(DropLastRow(t)), s.kind + " row dropped");
    if (t.NumRows() >= 2) ExpectReject(s.check(MergeFirstRows(t)), s.kind + " rows merged");
    if (t.NumRows() >= 1) ExpectReject(s.check(MoveFirstRow(t)), s.kind + " row moved");
  }
}

void TestStatementChecks() {
  const std::string dir = ".perfbench_run/test-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  SpanLog spans(false);
  Outcome outcome;
  Recorder recorder;
  Env env;
  env.seed = 4;
  env.spans = &spans;
  env.outcome = &outcome;
  env.recorder = &recorder;
  {
    CheckinSession checkin(env, {1500, 0.05});
    checkin.BuildReferences();
    checkin.Setup();
    CheckStatements(checkin.selects(), checkin.db(), checkin.session());

    TpchPaged tpch(env, {0.3, 0.05, 10}, dir + "/tpch");
    tpch.BuildReferences();
    tpch.Setup();
    CheckStatements(tpch.selects(), tpch.db(), tpch.session());
    tpch.Insert(1);
    tpch.CheckInserted();
    tpch.Teardown();
  }
  Expect(outcome.correct && outcome.failed == 0,
         "set-up and trickle insert: " + outcome.first_problem);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestComponentsMatchBruteForce();
  TestAnyChecks();
  TestAllChecks();
  TestWindowClose();
  TestParseIdList();
  TestStatementChecks();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("reference checks: all tests passed\n");
  return 0;
}
