#include "engine/aggregate.h"

#include <algorithm>
#include <cctype>

#include <cmath>

#include "geom/convex_hull.h"

namespace sgb::engine {

const char* ToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCountStar:
      return "count(*)";
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kAvg:
      return "avg";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kArrayAgg:
      return "array_agg";
    case AggregateKind::kStPolygon:
      return "st_polygon";
    case AggregateKind::kCountDistinct:
      return "count(distinct)";
    case AggregateKind::kVariance:
      return "var";
    case AggregateKind::kStddev:
      return "stddev";
  }
  return "?";
}

Result<AggregateKind> AggregateKindFromName(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "count") return AggregateKind::kCount;
  if (lower == "sum") return AggregateKind::kSum;
  if (lower == "avg" || lower == "average") return AggregateKind::kAvg;
  if (lower == "min") return AggregateKind::kMin;
  if (lower == "max") return AggregateKind::kMax;
  if (lower == "array_agg" || lower == "list_id") {
    return AggregateKind::kArrayAgg;
  }
  if (lower == "st_polygon") return AggregateKind::kStPolygon;
  if (lower == "var" || lower == "variance" || lower == "var_samp") {
    return AggregateKind::kVariance;
  }
  if (lower == "stddev" || lower == "stddev_samp" || lower == "stdev") {
    return AggregateKind::kStddev;
  }
  return Status::NotFound("'" + name + "' is not an aggregate function");
}

size_t AggregateArity(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCountStar:
      return 0;
    case AggregateKind::kStPolygon:
      return 2;
    default:
      return 1;
  }
}

DataType AggregateOutputType(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCountStar:
    case AggregateKind::kCount:
      return DataType::kInt64;
    case AggregateKind::kSum:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return DataType::kDouble;  // best effort; values keep their own type
    case AggregateKind::kAvg:
      return DataType::kDouble;
    case AggregateKind::kArrayAgg:
    case AggregateKind::kStPolygon:
      return DataType::kString;
    case AggregateKind::kCountDistinct:
      return DataType::kInt64;
    case AggregateKind::kVariance:
    case AggregateKind::kStddev:
      return DataType::kDouble;
  }
  return DataType::kNull;
}

namespace {

// Accumulators: one group's running state of one aggregate, fed the call's
// argument cells (`a[0]`, `a[1]`). Row-at-a-time states and the column-wise
// grouped aggregation share them, so both compute the same bits.

struct CountStarAcc {
  int64_t count = 0;
  void Add(const CellRef*) { ++count; }
  Value Finalize() const { return Value::Int(count); }
};

struct CountAcc {
  int64_t count = 0;
  void Add(const CellRef* a) {
    if (!a[0].is_null()) ++count;
  }
  Value Finalize() const { return Value::Int(count); }
};

struct SumAcc {
  double sum = 0.0;
  bool seen = false;
  bool all_int = true;
  void Add(const CellRef* a) {
    if (a[0].is_null()) return;
    seen = true;
    if (a[0].type != DataType::kInt64) all_int = false;
    sum += a[0].ToDouble();
  }
  Value Finalize() const {
    if (!seen) return Value::Null();
    if (all_int) return Value::Int(static_cast<int64_t>(sum));
    return Value::Double(sum);
  }
};

struct AvgAcc {
  double sum = 0.0;
  int64_t count = 0;
  void Add(const CellRef* a) {
    if (a[0].is_null()) return;
    sum += a[0].ToDouble();
    ++count;
  }
  Value Finalize() const {
    if (count == 0) return Value::Null();
    return Value::Double(sum / static_cast<double>(count));
  }
};

template <bool kMin>
struct MinMaxAcc {
  Value best;
  void Add(const CellRef* a) {
    if (a[0].is_null()) return;
    if (!best.is_null()) {
      const int c = CellRef::Compare(a[0], CellRef::Of(best));
      if (kMin ? c >= 0 : c <= 0) return;
    }
    best = a[0].ToValue();
  }
  Value Finalize() const { return best; }
};

struct ArrayAggAcc {
  std::string text;  ///< "{item,item..." once an item was added, else empty
  void Add(const CellRef* a) {
    if (a[0].is_null()) return;
    text += text.empty() ? '{' : ',';
    a[0].AppendText(&text);
  }
  Value Finalize() const& { return Close(std::string(text)); }
  /// The grouped path finalizes each group once and moves its text out.
  Value Finalize() && { return Close(std::move(text)); }
  static Value Close(std::string items) {
    if (items.empty()) return Value::Str("{}");
    items += '}';
    return Value::Str(std::move(items));
  }
};

struct StPolygonAcc {
  std::vector<geom::Point> points;
  void Add(const CellRef* a) {
    if (a[0].is_null() || a[1].is_null()) return;
    points.push_back(geom::Point{a[0].ToDouble(), a[1].ToDouble()});
  }
  Value Finalize() const {
    if (points.empty()) return Value::Null();
    std::vector<geom::Point> hull = geom::ConvexHull(points);
    std::string wkt = "POLYGON((";
    auto append = [&wkt](const geom::Point& p) {
      wkt += Value::Double(p.x).ToString();
      wkt += ' ';
      wkt += Value::Double(p.y).ToString();
    };
    for (size_t i = 0; i < hull.size(); ++i) {
      if (i > 0) wkt += ", ";
      append(hull[i]);
    }
    // WKT rings repeat the first vertex at the end.
    if (hull.size() > 1) {
      wkt += ", ";
      append(hull[0]);
    }
    wkt += "))";
    return Value::Str(std::move(wkt));
  }
};

struct CountDistinctAcc {
  ValueSet seen;
  void Add(const CellRef* a) {
    if (!a[0].is_null()) seen.insert(a[0].ToValue());
  }
  Value Finalize() const {
    return Value::Int(static_cast<int64_t>(seen.size()));
  }
};

/// Welford's online algorithm: numerically stable single-pass variance.
template <bool kStddev>
struct VarianceAcc {
  int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  void Add(const CellRef* a) {
    if (a[0].is_null()) return;
    const double x = a[0].ToDouble();
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  Value Finalize() const {
    if (count < 2) return Value::Null();  // sample variance needs n >= 2
    const double variance = m2 / static_cast<double>(count - 1);
    return Value::Double(kStddev ? std::sqrt(variance) : variance);
  }
};

/// Calls `fn` with a default accumulator of `kind`'s type.
template <typename Fn>
auto WithAccumulator(AggregateKind kind, Fn&& fn) {
  switch (kind) {
    case AggregateKind::kCountStar:
      return fn(CountStarAcc{});
    case AggregateKind::kCount:
      return fn(CountAcc{});
    case AggregateKind::kSum:
      return fn(SumAcc{});
    case AggregateKind::kAvg:
      return fn(AvgAcc{});
    case AggregateKind::kMin:
      return fn(MinMaxAcc<true>{});
    case AggregateKind::kMax:
      return fn(MinMaxAcc<false>{});
    case AggregateKind::kArrayAgg:
      return fn(ArrayAggAcc{});
    case AggregateKind::kStPolygon:
      return fn(StPolygonAcc{});
    case AggregateKind::kCountDistinct:
      return fn(CountDistinctAcc{});
    case AggregateKind::kVariance:
      return fn(VarianceAcc<false>{});
    case AggregateKind::kStddev:
      break;
  }
  return fn(VarianceAcc<true>{});
}

/// Evaluates the call's arguments against each row.
template <typename Acc>
class RowAggregateState final : public AggregateState {
 public:
  explicit RowAggregateState(const AggregateSpec& spec)
      : arity_(AggregateArity(spec.kind)) {
    for (size_t k = 0; k < arity_; ++k) args_[k] = spec.args[k].get();
  }
  void Add(const Row& row) override {
    Value values[2];
    CellRef cells[2];
    for (size_t k = 0; k < arity_; ++k) {
      values[k] = args_[k]->Evaluate(row);
      cells[k] = CellRef::Of(values[k]);
    }
    acc_.Add(cells);
  }
  Value Finalize() const override { return acc_.Finalize(); }

 private:
  size_t arity_;
  const Expression* args_[2] = {nullptr, nullptr};
  Acc acc_;
};

template <typename Acc>
class GroupedAggregateImpl final : public GroupedAggregate {
 public:
  GroupedAggregateImpl(size_t arity, size_t num_groups)
      : arity_(arity), accs_(num_groups) {}
  void Update(const ColumnVector* const* args, const size_t* group_of,
              size_t n) override {
    CellRef cells[2];
    for (size_t i = 0; i < n; ++i) {
      const size_t g = group_of[i];
      if (g == kNoGroup) continue;
      for (size_t k = 0; k < arity_; ++k) cells[k] = args[k]->CellAt(i);
      accs_[g].Add(cells);
    }
  }
  Value Finalize(size_t group) override {
    return std::move(accs_[group]).Finalize();
  }

 private:
  size_t arity_;
  std::vector<Acc> accs_;
};

}  // namespace

std::unique_ptr<AggregateState> CreateAggregateState(
    const AggregateSpec& spec) {
  return WithAccumulator(
      spec.kind, [&](auto acc) -> std::unique_ptr<AggregateState> {
        return std::make_unique<RowAggregateState<decltype(acc)>>(spec);
      });
}

std::unique_ptr<GroupedAggregate> CreateGroupedAggregate(AggregateKind kind,
                                                         size_t num_groups) {
  return WithAccumulator(
      kind, [&](auto acc) -> std::unique_ptr<GroupedAggregate> {
        return std::make_unique<GroupedAggregateImpl<decltype(acc)>>(
            AggregateArity(kind), num_groups);
      });
}

}  // namespace sgb::engine
