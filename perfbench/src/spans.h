// In-memory span recording for the traced run, plus the small statistics
// and process helpers the benchmark reports with.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One timed call into a layer: name, start and end (ns since the log was
/// created), the enclosing span on the same thread (0 = none), and the id
/// of the statement it belongs to (0 = none).
struct Span {
  uint64_t id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;
  uint64_t statement = 0;
};

/// Spans are kept in memory and written to one file at exit. A disabled log
/// records nothing, so the untraced run pays only a branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t statement);
  void End(uint64_t id);

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, uint64_t statement = 0)
      : log_(log), id_(log.Begin(name, statement)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  uint64_t id_;
};

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// Resident set size now and at its peak, in MB, from /proc/self/status.
double CurrentRssMb();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
