// The benchmark program: one process, one closed-loop client.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the same three components (components.h) at
// different sizes; the named component does most of the work. A round runs
// every statement of every component once, interleaved, so a slow spell on
// a shared host hits every metric alike. Rounds repeat until --seconds have
// passed; only whole rounds run. The last line of standard output is one
// JSON object: correct, attempted, failed, and the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "components.h"

namespace perfbench {
namespace {

struct Profile {
  CheckinSize checkin;
  TpchSize tpch;
  StreamSize stream;
  size_t paged_inserts_per_round = 1;
};

// Sizes per workload (README.md, "Inputs"). The named component is large;
// the other two run at the same small size in every workload.
bool ProfileFor(const std::string& workload, Profile* p) {
  const CheckinSize small_checkin{3000, 0.05};
  const TpchSize small_tpch{0.5, 0.05, 10};
  const StreamSize small_stream{100, 6, 2000, 0.1, 8};
  if (workload == "checkin_sgb") {
    *p = {{30000, 0.05}, small_tpch, small_stream, 3};
  } else if (workload == "tpch_paged") {
    *p = {small_checkin, {6.0, 0.05, 10}, small_stream, 6};
  } else if (workload == "checkin_stream") {
    *p = {small_checkin, small_tpch, {100, 30, 20000, 0.1, 20}, 3};
  } else {
    return false;
  }
  return true;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"sgb_any_ms", "ms"},      {"sgb_all_ms", "ms"},
    {"relational_ms", "ms"},   {"insert_ms", "ms"},
    {"ingest_rows_per_s", "rows/s"}, {"close_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sql.parse_us", "us"},
    {"sql.plan_us", "us"},
    {"planner.groups_est_ratio", "ratio"},
    {"engine.scan_ms", "ms"},
    {"engine.sgb_shell_ms", "ms"},
    {"engine.topn_ms", "ms"},
    {"engine.topn_fresh_ms", "ms"},
    {"engine.hash_agg_ms", "ms"},
    {"engine.join_ms", "ms"},
    {"engine.plan_cache_retained_mb", "MB"},
    {"mem.query_peak_mb", "MB"},
    {"core.any_ms", "ms"},
    {"core.any_dop2_ms", "ms"},
    {"core.all_ms", "ms"},
    {"core.all_dop2_ms", "ms"},
    {"core.3d_ms", "ms"},
    {"core.any.distance_computations", "count"},
    {"core.any.window_queries", "count"},
    {"core.any.union_ops", "count"},
    {"core.all.distance_computations", "count"},
    {"core.all.rectangle_tests", "count"},
    {"core.all.hull_tests", "count"},
    {"core.all.max_worker_share", "ratio"},
    {"storage.scan_ms", "ms"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pages_read", "count"},
    {"storage.evictions", "count"},
    {"storage.wal_bytes_per_row", "B/row"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.reopen_ms", "ms"},
    {"stats.analyze_ms", "ms"},
    {"stats.analyze_rss_mb", "MB"},
    {"continuous.open_insert_ms", "ms"},
    {"continuous.closing_insert_ms", "ms"},
    {"continuous.differential_checks", "count"},
    {"continuous.events_per_close", "count"},
    {"server.ping_us", "us"},
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "checkin_sgb|tpch_paged|checkin_stream --seed <n> "
               "--seconds <s> --trace 0|1\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  std::string workload;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoll(value);
    } else {
      return Usage("unknown flag");
    }
  }
  Profile profile;
  if (!ProfileFor(workload, &profile)) return Usage("unknown workload");
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage("bad --seed, --seconds or --trace");
  }

  // Scratch files live under the checkout; the socket path is relative so
  // that it fits a unix socket address wherever the checkout is.
  const std::string run_root = ".perfbench_run";
  const std::string workdir = run_root + "/" + workload + "-" +
                              std::to_string(seed) + "-" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(workdir);

  SpanLog spans(trace == 1);
  Outcome outcome;
  Recorder recorder;
  Env env;
  env.seed = static_cast<uint64_t>(seed);
  env.spans = &spans;
  env.outcome = &outcome;
  env.recorder = &recorder;

  CheckinSession checkin(env, profile.checkin);
  TpchPaged tpch(env, profile.tpch, workdir + "/tpch");
  CheckinStream stream(env, profile.stream, workdir + "/s.sock");
  checkin.BuildReferences();
  tpch.BuildReferences();

  // One round: every SELECT of both SQL components, the stream's INSERTs
  // and the paged trickle INSERTs, merged by evenly spaced positions.
  struct Op {
    double position;
    std::function<void(uint64_t)> run;
  };
  uint64_t statement_id = 0;
  auto round = [&]() {
    std::vector<Op> ops;
    const auto& cs = checkin.selects();
    const auto& ts = tpch.selects();
    for (size_t i = 0; i < cs.size(); ++i) {
      ops.push_back({(i + 0.5) / cs.size(), [&, i](uint64_t id) {
                       RunSelect(env, checkin.db(), checkin.session(),
                                 checkin.selects()[i], id);
                       if (trace == 1) checkin.ShadowCore(cs[i], id);
                     }});
    }
    for (size_t i = 0; i < ts.size(); ++i) {
      ops.push_back({(i + 0.6) / ts.size(), [&, i](uint64_t id) {
                       RunSelect(env, tpch.db(), tpch.session(),
                                 tpch.selects()[i], id);
                     }});
    }
    const size_t k = profile.stream.inserts_per_round;
    for (size_t j = 0; j < k; ++j) {
      ops.push_back({(j + 0.45) / k,
                     [&](uint64_t id) { stream.Insert(id); }});
    }
    const size_t m = profile.paged_inserts_per_round;
    for (size_t j = 0; j < m; ++j) {
      ops.push_back({(j + 0.35) / m, [&](uint64_t id) { tpch.Insert(id); }});
    }
    std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.position < b.position;
    });
    for (const Op& op : ops) op.run(++statement_id);
  };

  // Set-up, five times; the first four environments are torn down. Each
  // covers generation, load, checkpoint and reopen, ANALYZE, server start
  // and one warm-up round.
  constexpr int kSetups = 5;
  std::vector<double> setup_s, checkpoint_ms, reopen_ms, analyze_ms;
  double analyze_rss_mb = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (rep > 0) {
      tpch.Teardown();
      stream.EndSegment();
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans, "setup");
      checkin.Setup();
      tpch.Setup();
      stream.Setup();
      round();
    }
    setup_s.push_back(MillisSince(t0) / 1000.0);
    checkpoint_ms.push_back(tpch.checkpoint_ms());
    reopen_ms.push_back(tpch.reopen_ms());
    analyze_ms.push_back(checkin.analyze_ms() + tpch.analyze_ms());
    analyze_rss_mb = std::max(analyze_rss_mb, tpch.analyze_rss_mb());
  }

  // The timed loop.
  if (trace == 1) checkin.PrepareShell();
  const TpchPaged::PoolCounters pool0 = tpch.Pool();
  const uint64_t inserted0 = tpch.inserted_rows();
  const uint64_t attempted0 = outcome.attempted;
  env.recording = true;
  const Clock::time_point loop_start = Clock::now();
  size_t rounds = 0;
  while (rounds == 0 || MillisSince(loop_start) < seconds * 1000.0) {
    if (stream.SegmentDone()) {
      ScopedSpan span(spans, "stream.segment");
      stream.EndSegment();
      stream.Setup();
    }
    ScopedSpan span(spans, "round");
    round();
    if (trace == 1) stream.Ping();
    ++rounds;
  }
  const double loop_s = MillisSince(loop_start) / 1000.0;
  env.recording = false;
  const TpchPaged::PoolCounters pool1 = tpch.Pool();
  const double inserted = static_cast<double>(tpch.inserted_rows() - inserted0);
  tpch.CheckInserted();
  stream.EndSegment();

  std::map<std::string, double> layer;
  if (trace == 1) {
    checkin.Probe(&layer);
    tpch.Probe(&layer);
    stream.Probe(&layer);
  }
  tpch.Teardown();

  // End-to-end. A SELECT family is the sum of its statements' fastest runs
  // and insert_ms the sum of both INSERT kinds' lower quartiles: on a
  // shared host other tenants only ever add time, and their slow spells
  // last seconds, so a run's median flips between a fast and a slow mode
  // (README, "End-to-end metrics").
  std::map<std::string, std::vector<std::string>> families;
  for (const auto* list : {&checkin.selects(), &tpch.selects()}) {
    for (const Select& s : *list) families[s.family].push_back(s.kind);
  }
  families["insert"] = {"stream_insert", "paged_insert"};
  auto family_ms = [&](const std::string& f, double q) {
    double sum = 0;
    for (const std::string& kind : families[f]) {
      sum += recorder.QuantileOf(kind, q);
    }
    return sum;
  };
  std::map<std::string, double> e2e = {
      {"setup_s", Median(setup_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"sgb_any_ms", family_ms("sgb_any", 0.0)},
      {"sgb_all_ms", family_ms("sgb_all", 0.0)},
      {"relational_ms", family_ms("relational", 0.0)},
      {"insert_ms", family_ms("insert", 0.25)},
      {"ingest_rows_per_s", stream.ingest_rows_per_s()},
      {"close_ms", stream.close_ms()},
  };

  const double dh = pool1.hits - pool0.hits;
  const double dm = pool1.misses - pool0.misses;
  layer["storage.pool_hit_ratio"] = dh + dm > 0 ? dh / (dh + dm) : std::nan("");
  layer["storage.pages_read"] = dm;
  layer["storage.evictions"] = pool1.evictions - pool0.evictions;
  layer["storage.wal_bytes_per_row"] =
      inserted > 0 ? (pool1.wal_bytes - pool0.wal_bytes) / inserted
                   : std::nan("");
  layer["storage.checkpoint_ms"] = Median(checkpoint_ms);
  layer["storage.reopen_ms"] = Median(reopen_ms);
  layer["stats.analyze_ms"] = Median(analyze_ms);
  layer["stats.analyze_rss_mb"] = analyze_rss_mb;
  layer["continuous.events_per_close"] = stream.events_per_close();

  // Human-readable report on standard error.
  std::fprintf(stderr,
               "workload %s seed %lld: %zu rounds in %.2f s, %llu "
               "operations, pool %zu B (customer+supplier+partsupp %zu B, "
               "orders %zu B, lineitem %zu B)\n",
               workload.c_str(), seed, rounds, loop_s,
               static_cast<unsigned long long>(outcome.attempted - attempted0),
               tpch.pool_bytes(),
               tpch.table_bytes("customer") + tpch.table_bytes("supplier") +
                   tpch.table_bytes("partsupp"),
               tpch.table_bytes("orders"), tpch.table_bytes("lineitem"));
  for (const MetricSpec& m : kEndToEnd) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name, e2e[m.name], m.unit);
  }
  if (trace == 1) {
    for (const MetricSpec& m : kPerLayer) {
      std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name, layer[m.name],
                   m.unit);
    }
    const std::string path = run_root + "/spans-" + workload + "-" +
                             std::to_string(seed) + ".jsonl";
    if (spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "  %zu spans written to %s\n", spans.size(),
                   path.c_str());
    }
  }
  std::filesystem::remove_all(workdir);

  std::string metrics;
  auto add = [&](const MetricSpec& m, double v) {
    if (!metrics.empty()) metrics += ", ";
    if (!std::isfinite(v)) {
      outcome.Wrong(std::string(m.name) + " was not measured");
      v = 0;
    }
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(v) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (trace == 1) {
    for (const MetricSpec& m : kPerLayer) add(m, layer[m.name]);
  } else {
    for (const MetricSpec& m : kEndToEnd) add(m, e2e[m.name]);
  }
  if (!outcome.first_problem.empty()) {
    std::fprintf(stderr, "  %s\n", outcome.first_problem.c_str());
  }
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
