// libFuzzer entry for the SGB differential harness.
//
// The fuzzer mutates a compact binary encoding of a grouping case and the
// harness cross-checks every implementation tier against the All-Pairs
// oracle — exactly the contract of the seeded gtest sweep
// (sgb_fuzz_test.cc), but with coverage-guided input generation instead of
// a fixed distribution. On any divergence, core failure, or malformed
// grouping the harness prints a paste-able repro and traps, which libFuzzer
// records as a crashing input.
//
// Input encoding (all little-endian, truncated input reads as zeros):
//   byte  0       bit 0 = metric (L2/LInf), bits 1.. pick the overlap clause
//   bytes 1-2     u16 -> epsilon in [0.05, 2.0]
//   bytes 3-10    u64 join seed (JOIN-ANY tie-breaking)
//   byte  11      bit 0 = also run the dop-4 parallel tiers
//   then 16-byte records: x, y as raw doubles; at most kMaxPoints points
//
// Raw doubles mean mutations naturally produce NaN and infinities; those
// inputs drop to the weaker contract (never crash, well-formed grouping,
// serial tiers only) that the engine guarantees for non-finite coordinates,
// except for SGB-Any's grid, which must match All-Pairs on every input.
//
// Build with -DSGB_ENABLE_LIBFUZZER=ON (requires Clang). Under other
// toolchains the same file compiles into a standalone replay driver that
// runs every corpus file through LLVMFuzzerTestOneInput once — CI uses it
// to keep the harness building and the seed corpus valid on gcc.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "fuzz_generators.h"
#include "geom/point.h"

namespace {

using sgb::core::AllOptions;
using sgb::core::AnyOptions;
using sgb::core::CaseConfig;
using sgb::core::Grouping;
using sgb::core::OverlapClause;
using sgb::core::PointKind;
using sgb::core::Repro;
using sgb::core::SgbAll;
using sgb::core::SgbAllAlgorithm;
using sgb::core::SgbAny;
using sgb::core::SgbAnyAlgorithm;
using sgb::geom::Metric;
using sgb::geom::Point;

// All-Pairs is O(n^2) and the harness runs ~10 tier combinations per
// input; 48 points keeps one exec well under a millisecond.
constexpr size_t kMaxPoints = 48;

/// Sequential decoder over the fuzz input; reads past the end yield zeros
/// so every byte string is a valid (if small) case.
struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  uint8_t U8() { return pos < size ? data[pos++] : 0; }

  uint16_t U16() {
    const uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(U8()) << 8));
  }

  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  size_t Remaining() const { return pos < size ? size - pos : 0; }
};

CaseConfig DecodeConfig(ByteReader& in) {
  CaseConfig config;
  const uint8_t flags = in.U8();
  config.metric = (flags & 1) != 0 ? Metric::kLInf : Metric::kL2;
  constexpr OverlapClause kClauses[] = {OverlapClause::kJoinAny,
                                        OverlapClause::kEliminate,
                                        OverlapClause::kFormNewGroup};
  config.clause = kClauses[(flags >> 1) % 3];
  config.epsilon = 0.05 + 1.95 * (in.U16() / 65535.0);
  config.join_seed = in.U64();
  return config;
}

bool WellFormed(const Grouping& grouping, size_t n) {
  if (grouping.group_of.size() != n) return false;
  for (const size_t g : grouping.group_of) {
    if (g >= grouping.num_groups && g != Grouping::kEliminated) return false;
  }
  return true;
}

[[noreturn]] void Fail(const CaseConfig& config, const std::vector<Point>& pts,
                       const char* variant, const std::string& detail) {
  std::fprintf(stderr, "sgb_fuzzer: %s: %s\n%s\n", variant, detail.c_str(),
               Repro(config, pts).c_str());
  __builtin_trap();
}

template <typename Run>
void CheckTier(const CaseConfig& config, const std::vector<Point>& pts,
               const Grouping* oracle, Run run, const char* variant) {
  auto result = run();
  if (!result.ok()) Fail(config, pts, variant, result.status().ToString());
  if (!WellFormed(result.value(), pts.size())) {
    Fail(config, pts, variant, "malformed grouping");
  }
  if (oracle != nullptr && result.value().group_of != oracle->group_of) {
    Fail(config, pts, variant, "diverges from the All-Pairs oracle");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in{data, size};
  const CaseConfig config = DecodeConfig(in);
  const bool parallel = (in.U8() & 1) != 0;

  std::vector<Point> pts;
  while (in.Remaining() >= 2 * sizeof(double) && pts.size() < kMaxPoints) {
    pts.push_back({in.F64(), in.F64()});
  }
  bool finite = true;
  for (const Point& p : pts) {
    finite &= std::isfinite(p.x) && std::isfinite(p.y);
  }

  // Non-finite coordinates break the metric axioms, so the SGB-All tiers
  // and the R-tree SGB-Any tier may legitimately disagree; their contract
  // narrows to crash-freedom and a well-formed grouping, serial only. The
  // SGB-Any grid follows the kernel's NaN/±inf semantics and stays exact.
  const std::vector<int> dops = (parallel && finite) ? std::vector<int>{1, 4}
                                                     : std::vector<int>{1};
  const std::vector<int> any_dops =
      parallel ? std::vector<int>{1, 4} : std::vector<int>{1};

  auto all_oracle = SgbAll(pts, AllOptions(config, SgbAllAlgorithm::kAllPairs,
                                           1));
  if (!all_oracle.ok()) {
    Fail(config, pts, "SgbAll/AllPairs/dop1", all_oracle.status().ToString());
  }
  const Grouping* all_ref = finite ? &all_oracle.value() : nullptr;
  if (!WellFormed(all_oracle.value(), pts.size())) {
    Fail(config, pts, "SgbAll/AllPairs/dop1", "malformed grouping");
  }
  for (const SgbAllAlgorithm algorithm :
       {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
        SgbAllAlgorithm::kIndexed, SgbAllAlgorithm::kGroupsIndex}) {
    for (const int dop : dops) {
      if (algorithm == SgbAllAlgorithm::kAllPairs && dop == 1) continue;
      const std::string variant = std::string("SgbAll/") +
                                  ToString(algorithm) + "/dop" +
                                  std::to_string(dop);
      CheckTier(
          config, pts, all_ref,
          [&] { return SgbAll(pts, AllOptions(config, algorithm, dop)); },
          variant.c_str());
    }
  }

  auto any_oracle = SgbAny(pts, AnyOptions(config, SgbAnyAlgorithm::kAllPairs,
                                           1));
  if (!any_oracle.ok()) {
    Fail(config, pts, "SgbAny/AllPairs/dop1", any_oracle.status().ToString());
  }
  const Grouping* any_ref = finite ? &any_oracle.value() : nullptr;
  if (!WellFormed(any_oracle.value(), pts.size())) {
    Fail(config, pts, "SgbAny/AllPairs/dop1", "malformed grouping");
  }
  for (const SgbAnyAlgorithm algorithm :
       {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed,
        SgbAnyAlgorithm::kPointsIndex}) {
    for (const int dop : any_dops) {
      if (algorithm == SgbAnyAlgorithm::kAllPairs && dop == 1) continue;
      const std::string variant = std::string("SgbAny/") +
                                  ToString(algorithm) + "/dop" +
                                  std::to_string(dop);
      CheckTier(
          config, pts,
          algorithm == SgbAnyAlgorithm::kPointsIndex ? any_ref
                                                     : &any_oracle.value(),
          [&] { return SgbAny(pts, AnyOptions(config, algorithm, dop)); },
          variant.c_str());
    }
  }
  return 0;
}

#ifndef SGB_LIBFUZZER
// Standalone replay driver: run each file argument through the fuzz entry
// once. Exercised by ctest over tests/fuzz/corpus/ so the harness and the
// seed corpus stay green on toolchains without libFuzzer.
int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s corpus-file...\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "sgb_fuzzer: cannot open %s\n", argv[i]);
      return 2;
    }
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(f);
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
    std::printf("sgb_fuzzer: %s ok (%zu bytes)\n", argv[i], bytes.size());
  }
  return 0;
}
#endif  // SGB_LIBFUZZER
