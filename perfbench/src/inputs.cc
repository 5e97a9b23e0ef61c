#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/random.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string ExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<Checkin> GenerateCheckins(size_t n, uint64_t seed) {
  constexpr int kCols = 8;
  constexpr int kRows = 6;
  constexpr int kHotspots = kCols * kRows;
  constexpr double kLoX = -120.0, kHiX = -70.0, kLoY = 25.0, kHiY = 50.0;
  constexpr double kSigma = 0.35;
  constexpr double kSkew = 1.1;
  constexpr double kBackground = 0.04;
  constexpr int64_t kUsers = 1000;
  constexpr double kAltRange = 0.02;
  constexpr uint64_t kMapSeed = 0x5eedc17135ULL;

  // The map of hotspots is fixed (its own constant seed); the run's seed
  // draws the points. Where the most popular hotspots sit changes the
  // index work by up to 1.5x, so a seed-dependent map would make the
  // benchmark measure the map instead of the engine.
  sgb::Rng map_rng(kMapSeed);
  const double cw = (kHiX - kLoX) / kCols;
  const double ch = (kHiY - kLoY) / kRows;
  std::vector<double> cx(kHotspots), cy(kHotspots);
  for (int i = 0; i < kHotspots; ++i) {
    cx[i] = kLoX + cw * (i % kCols + 0.5) + map_rng.NextUniform(-0.5, 0.5);
    cy[i] = kLoY + ch * (i / kCols + 0.5) + map_rng.NextUniform(-0.5, 0.5);
  }
  std::vector<int> rank_to_hotspot(kHotspots);
  std::iota(rank_to_hotspot.begin(), rank_to_hotspot.end(), 0);
  for (int i = kHotspots - 1; i > 0; --i) {
    std::swap(rank_to_hotspot[i], rank_to_hotspot[map_rng.NextInt(0, i)]);
  }
  sgb::Rng rng(Mix(seed, 1));
  std::vector<double> cdf(kHotspots);
  double total = 0.0;
  for (int k = 0; k < kHotspots; ++k) {
    total += 1.0 / std::pow(k + 1.0, kSkew);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;

  std::vector<Checkin> out(n);
  for (size_t i = 0; i < n; ++i) {
    Checkin& c = out[i];
    c.id = static_cast<int64_t>(i) + 1;
    c.user_id = rng.NextInt(1, kUsers);
    if (rng.NextDouble() < kBackground) {
      c.x = rng.NextUniform(kLoX, kHiX);
      c.y = rng.NextUniform(kLoY, kHiY);
    } else {
      const double u = rng.NextDouble();
      const int rank = static_cast<int>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const int h = rank_to_hotspot[std::min(rank, kHotspots - 1)];
      c.x = rng.NextGaussian(cx[h], kSigma);
      c.y = rng.NextGaussian(cy[h], kSigma);
    }
    c.alt = rng.NextUniform(0.0, kAltRange);
  }
  return out;
}

std::vector<StreamRow> GenerateStream(size_t n, double duration,
                                      double jitter, uint64_t seed) {
  const std::vector<Checkin> points = GenerateCheckins(n, Mix(seed, 2));
  sgb::Rng rng(Mix(seed, 3));
  std::vector<StreamRow> rows(n);
  std::vector<double> rank(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = points[i].id;
    rows[i].x = points[i].x;
    rows[i].y = points[i].y;
    // Times on a fine grid keep the SQL literals short and exact.
    rows[i].t = std::floor(rng.NextUniform(0.0, duration) * 1000.0) / 1000.0;
    rank[i] = rows[i].t + rng.NextUniform(0.0, jitter);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rank[a] != rank[b] ? rank[a] < rank[b] : a < b;
  });
  std::vector<StreamRow> arrival(n);
  for (size_t i = 0; i < n; ++i) arrival[i] = rows[order[i]];
  return arrival;
}

}  // namespace perfbench
