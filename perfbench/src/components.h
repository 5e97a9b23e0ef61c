// The benchmark's three components. Every workload runs all three, at
// different sizes, so every metric is defined on every workload while each
// workload's named component does most of the work:
//   CheckinSession - SQL over an in-memory check-in table (core, index, geom)
//   TpchPaged      - Table-2 statements over a disk-backed TPC-H database
//   CheckinStream  - multi-row INSERTs over the wire into a table with two
//                    sliding-window continuous queries, plus a subscriber
#ifndef PERFBENCH_COMPONENTS_H_
#define PERFBENCH_COMPONENTS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/executor.h"
#include "geom/point.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/tpch.h"

namespace perfbench {

// ---------------------------------------------------------------------------

struct CheckinSize {
  size_t rows = 0;
  double eps = 0.05;
};

class CheckinSession {
 public:
  CheckinSession(Env& env, CheckinSize size) : env_(env), size_(size) {}

  /// Generates the table, registers it and runs ANALYZE.
  void Setup();
  /// Computes the reference answers (untimed; once per run).
  void BuildReferences();

  const std::vector<Select>& selects() const { return selects_; }
  sgb::engine::Database& db() { return *db_; }
  sgb::engine::Session& session() { return *session_; }

  /// Traced run, before the timed loop: reads the tier and dop the planner
  /// chose for the statements engine.sgb_shell_ms covers from their EXPLAIN.
  void PrepareShell();
  /// Traced run: right after `select` ran, times the core call it makes on
  /// the same points with the same options; records kind `<kind>.core`.
  void ShadowCore(const Select& select, uint64_t statement_id);

  /// Per-layer probes of the traced run (parse, plan, scan, core calls,
  /// EXPLAIN ANALYZE estimates, fresh top-N plans, query-log peaks).
  void Probe(std::map<std::string, double>* layer);

  double analyze_ms() const { return analyze_ms_; }

 private:
  void BuildSelects();

  Env& env_;
  CheckinSize size_;
  std::vector<Checkin> rows_;
  std::unique_ptr<sgb::engine::Database> db_;
  sgb::engine::SessionPtr session_;
  std::vector<Select> selects_;
  double analyze_ms_ = 0.0;

  // References.
  std::vector<Vec3> pts2_, pts3_;
  std::unordered_map<int64_t, uint32_t> index_of_id_;
  AnyReference any_l2_, any_linf_, any_3d_;
  std::vector<std::vector<uint32_t>> eliminate_;  ///< canonical groups

  // Core calls of engine.sgb_shell_ms: statement kind -> planner's choice.
  struct CoreCall {
    std::string tier;  ///< "indexed", "bounds" or "all-pairs"
    int dop = 1;       ///< 0 = auto
  };
  std::map<std::string, CoreCall> shell_;
  std::vector<sgb::geom::Point> shell_points_;
};

// ---------------------------------------------------------------------------

struct TpchSize {
  double scale_factor = 0.5;
  double eps = 0.05;
  size_t insert_rows = 10;  ///< rows per trickle INSERT
};

class TpchPaged {
 public:
  TpchPaged(Env& env, TpchSize size, std::string dir)
      : env_(env), size_(size), dir_(std::move(dir)) {}

  /// Generates the tables, loads them with multi-row INSERTs, CHECKPOINTs,
  /// closes and reopens the database with a pool that holds the three
  /// small tables but not orders or lineitem, checks the row counts and
  /// runs ANALYZE.
  void Setup();
  void BuildReferences();
  /// Closes the database and removes its directory.
  void Teardown();

  const std::vector<Select>& selects() const { return selects_; }
  sgb::engine::Database& db() { return *db_; }
  sgb::engine::Session& session() { return *session_; }

  /// One trickle INSERT into lineitem_log; records kind "paged_insert".
  void Insert(uint64_t statement_id);
  /// Row count of lineitem_log equals the rows acknowledged.
  void CheckInserted();

  /// system.buffer_pool counters.
  struct PoolCounters {
    double hits = 0, misses = 0, evictions = 0, wal_bytes = 0;
  };
  PoolCounters Pool();
  uint64_t inserted_rows() const { return inserted_rows_; }

  void Probe(std::map<std::string, double>* layer);

  double checkpoint_ms() const { return checkpoint_ms_; }
  double reopen_ms() const { return reopen_ms_; }
  double analyze_ms() const { return analyze_ms_; }
  double analyze_rss_mb() const { return analyze_rss_mb_; }
  size_t pool_bytes() const { return pool_bytes_; }
  size_t table_bytes(const std::string& t) const;

 private:
  void BuildSelects();
  bool Exec(sgb::engine::Database& db, const std::string& sql);

  Env& env_;
  TpchSize size_;
  std::string dir_;
  sgb::workload::TpchData data_;
  std::unique_ptr<sgb::engine::Database> db_;
  sgb::engine::SessionPtr session_;
  std::vector<Select> selects_;
  uint64_t insert_seq_ = 0;
  uint64_t inserted_rows_ = 0;
  double checkpoint_ms_ = 0, reopen_ms_ = 0, analyze_ms_ = 0;
  double analyze_rss_mb_ = 0;
  size_t pool_bytes_ = 0;
  std::map<std::string, size_t> bytes_;

  // References: derived SGB inputs of the three Table-2 families.
  struct Derived {
    std::vector<Vec3> pts;
    std::vector<int64_t> ids;  ///< empty when the statement reports counts
    std::unordered_map<int64_t, uint32_t> index_of_id;
    AnyReference any;
  };
  Derived buying_, parts_, supplier_;
};

// ---------------------------------------------------------------------------

struct StreamSize {
  size_t rows_per_insert = 100;
  size_t inserts_per_round = 4;
  size_t rows_per_epoch = 2000;  ///< rows per 100 event-time units
  double eps = 0.1;
  /// Rounds per segment. Each segment replays the same stream from event
  /// time 0 into a fresh database and server, so what the engine and the
  /// benchmark hold stays the same however many rounds a run finishes.
  size_t rounds_per_segment = 8;
};

class CheckinStream {
 public:
  CheckinStream(Env& env, StreamSize size, std::string socket_path);
  ~CheckinStream();
  CheckinStream(const CheckinStream&) = delete;
  CheckinStream& operator=(const CheckinStream&) = delete;

  /// Starts a segment: a fresh database and server, the writer and the
  /// subscriber connections, the table and the two continuous queries, and
  /// subscriptions to both.
  void Setup();
  /// Whether the segment has sent all of its INSERTs.
  bool SegmentDone() const;
  /// Ends the segment: reads the differential checks the continuous queries
  /// ran, stops the server (the reader then reads what is left and ends),
  /// checks every window_closed event against the watermark model, and
  /// keeps the close latencies of timed INSERTs.
  void EndSegment();

  /// Sends the next multi-row INSERT over the writer connection; records
  /// kind "stream_insert".
  void Insert(uint64_t statement_id);
  /// Client::Ping round trip (traced run); records kind "ping".
  void Ping();
  /// Traced run: parse time of one stream INSERT, ping round trips, the
  /// differential checks per full segment and the INSERT latencies split
  /// by whether they close a window.
  void Probe(std::map<std::string, double>* layer);

  double close_ms() const { return Median(close_ms_); }
  double ingest_rows_per_s() const;
  double events_per_close() const;

 private:
  struct Received {
    sgb::server::DeltaEvent event;
    Clock::time_point at;
  };
  void ReadEvents();
  void Teardown();
  const StreamRow& Row(size_t i);
  std::string InsertText(size_t begin, size_t end);
  size_t inserts_per_segment() const {
    return size_.rounds_per_segment * size_.inserts_per_round;
  }

  Env& env_;
  StreamSize size_;
  std::string socket_path_;
  std::unique_ptr<sgb::engine::Database> db_;
  std::unique_ptr<sgb::server::Server> server_;
  std::unique_ptr<sgb::server::Client> writer_;
  std::unique_ptr<sgb::server::Client> subscriber_;  ///< used by reader_ only
  std::thread reader_;

  std::mutex mu_;  ///< guards closes_ and events_read_
  std::vector<Received> closes_;  ///< window_closed events of the segment
  double events_read_ = 0;        ///< every EVENT line, over the run

  // Watermark model of the segment: the stream's rows in arrival order
  // (the same in every segment), and per INSERT sent its send time, its
  // row range and the watermark after it.
  std::vector<StreamRow> rows_;
  size_t epoch_ = 0;
  struct Sent {
    Clock::time_point at;
    size_t first_row = 0;
    size_t end_row = 0;
    double watermark = 0;
    bool recorded = false;
    double ms = 0;
  };
  std::vector<Sent> sent_;
  double watermark_ = -1e300;

  // Over the run.
  double acked_rows_ = 0;
  double insert_wall_ms_ = 0;
  double window_closes_ = 0;
  std::vector<double> close_ms_;     ///< per window closed by a timed INSERT
  std::vector<double> checks_;       ///< differential checks per full segment
  std::vector<double> open_ms_, closing_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMPONENTS_H_
