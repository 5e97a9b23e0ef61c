#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
thread_local std::vector<uint64_t> t_open_spans;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint64_t SpanLog::Begin(const std::string& name, uint64_t statement) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.statement = statement;
  s.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  t_open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"statement\":" << s.statement
        << "}\n";
  }
  return static_cast<bool>(out);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atof(line.c_str() + prefix.size()) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}
}  // namespace

double CurrentRssMb() { return StatusFieldMb("VmRSS"); }
double PeakRssMb() { return StatusFieldMb("VmHWM"); }

}  // namespace perfbench
