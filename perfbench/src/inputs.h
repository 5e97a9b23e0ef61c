// Seeded input generators for the benchmark. Every input is a pure function
// of the seed; the engine receives only the generated rows.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One check-in: a unique id, a user, two coordinates (x = longitude,
/// y = latitude) and a narrow-range third coordinate `alt`.
struct Checkin {
  int64_t id = 0;
  int64_t user_id = 0;
  double x = 0.0;
  double y = 0.0;
  double alt = 0.0;
};

/// Brightkite-like skew: 48 Gaussian hotspots (sigma 0.35) with Zipf(1.1)
/// popularity plus a 4% uniform background over [-120,-70] x [25,50].
/// Hotspot centres sit on a jittered 8 x 6 lattice so that no two hotspots
/// merge. The map (centres and which hotspot gets which popularity rank) is
/// the same for every seed; the seed draws every point, so the amount of
/// grouping work is nearly the same for every seed.
std::vector<Checkin> GenerateCheckins(size_t n, uint64_t seed);

/// One streamed check-in: event time `t` in [0, duration), arrival order
/// jittered by up to `jitter` time units.
struct StreamRow {
  int64_t id = 0;
  double t = 0.0;
  double x = 0.0;
  double y = 0.0;
};

/// `n` check-ins spread uniformly over event times [0, duration) and
/// returned in arrival order: each row's arrival rank is its time plus a
/// uniform delay in [0, jitter).
std::vector<StreamRow> GenerateStream(size_t n, double duration,
                                      double jitter, uint64_t seed);

/// SplitMix64 step, for deriving independent sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Formats a double so that it parses back to the same value.
std::string ExactDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
