// CheckinStream: a jittered check-in stream sent over one writer connection
// as multi-row INSERTs into a table with two sliding-window continuous
// queries; a second connection subscribes to both and reads every EVENT.
#include <algorithm>
#include <cmath>
#include <set>
#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#include "components.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

constexpr double kEpochDuration = 100.0;
constexpr double kJitter = 1.0;
constexpr double kWindowSize = 10.0;
constexpr double kWindowAdvance = 5.0;

/// Window ends are multiples of the advance; the number of them at or
/// below watermark `w` (windows with a negative start end at 5 at least).
int64_t EndsAtOrBelow(double w) {
  return w < kWindowAdvance ? 0
                            : static_cast<int64_t>(std::floor(w / kWindowAdvance));
}

}  // namespace

CheckinStream::CheckinStream(Env& env, StreamSize size,
                             std::string socket_path)
    : env_(env), size_(size), socket_path_(std::move(socket_path)) {}

CheckinStream::~CheckinStream() { Teardown(); }

void CheckinStream::Setup() {
  Teardown();
  sent_.clear();
  watermark_ = -1e300;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closes_.clear();
  }

  db_ = std::make_unique<sgb::engine::Database>();
  sgb::server::ServerOptions options;
  options.unix_path = socket_path_;
  server_ = std::make_unique<sgb::server::Server>(db_.get(), options);
  sgb::Status started = server_->Start();
  if (!started.ok()) {
    env_.outcome->Failed("server start: " + started.ToString());
    return;
  }
  auto writer = sgb::server::Client::ConnectUnixSocket(socket_path_);
  auto subscriber = sgb::server::Client::ConnectUnixSocket(socket_path_);
  if (!writer.ok() || !subscriber.ok()) {
    env_.outcome->Failed("connect to the server");
    return;
  }
  writer_ = std::make_unique<sgb::server::Client>(std::move(writer).value());
  subscriber_ =
      std::make_unique<sgb::server::Client>(std::move(subscriber).value());

  char eps[32];
  std::snprintf(eps, sizeof(eps), "%g", size_.eps);
  const std::string window = " WINDOW SLIDING " + ExactDouble(kWindowSize) +
                             " ADVANCE " + ExactDouble(kWindowAdvance) +
                             " ON t";
  const std::vector<std::string> ddl = {
      "CREATE TABLE stream (id INT, t DOUBLE, x DOUBLE, y DOUBLE)",
      std::string("CREATE CONTINUOUS QUERY cq_any AS SELECT count(*) FROM "
                  "stream GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN ") +
          eps + window,
      std::string("CREATE CONTINUOUS QUERY cq_all AS SELECT count(*) FROM "
                  "stream GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN ") +
          eps + " ON-OVERLAP JOIN-ANY" + window,
  };
  for (const std::string& sql : ddl) {
    auto r = writer_->Query(sql);
    if (!r.ok()) {
      env_.outcome->Failed("stream DDL: " + r.status().ToString());
      return;
    }
  }
  for (const char* q : {"cq_any", "cq_all"}) {
    sgb::Status s = subscriber_->Subscribe(q);
    if (!s.ok()) {
      env_.outcome->Failed("subscribe: " + s.ToString());
      return;
    }
  }
  reader_ = std::thread([this] { ReadEvents(); });
}

void CheckinStream::ReadEvents() {
  // A window close delivers one batch: the window's deltas, then its
  // window_closed line. One span covers the receipt of each batch, from
  // its first line to its window_closed line.
  uint64_t batch_span = 0;
  while (true) {
    auto event = subscriber_->NextEvent();
    if (!event.ok()) break;  // the server closed the connection
    const Clock::time_point at = Clock::now();
    if (batch_span == 0) batch_span = env_.spans->Begin("server.event_batch", 0);
    std::lock_guard<std::mutex> lock(mu_);
    ++events_read_;
    if (event.value().kind == "window_closed") {
      closes_.push_back({std::move(event).value(), at});
      env_.spans->End(batch_span);
      batch_span = 0;
    }
  }
  env_.spans->End(batch_span);
}

bool CheckinStream::SegmentDone() const {
  return sent_.size() >= inserts_per_segment();
}

void CheckinStream::Teardown() {
  // Stopping the server closes both connections; the reader then drains
  // what is buffered, sees end of stream and returns.
  if (server_) server_->Stop();
  if (reader_.joinable()) reader_.join();
  writer_.reset();
  subscriber_.reset();
  server_.reset();
  db_.reset();
}

const StreamRow& CheckinStream::Row(size_t i) {
  while (rows_.size() <= i) {
    std::vector<StreamRow> epoch =
        GenerateStream(size_.rows_per_epoch, kEpochDuration, kJitter,
                       Mix(env_.seed, 30 + epoch_));
    for (StreamRow& r : epoch) {
      r.t += kEpochDuration * static_cast<double>(epoch_);
      r.id += static_cast<int64_t>(size_.rows_per_epoch * epoch_);
      rows_.push_back(r);
    }
    ++epoch_;
  }
  return rows_[i];
}

std::string CheckinStream::InsertText(size_t begin, size_t end) {
  std::string sql = "INSERT INTO stream VALUES ";
  for (size_t i = begin; i < end; ++i) {
    const StreamRow& r = Row(i);
    if (i > begin) sql += ", ";
    sql += "(" + std::to_string(r.id) + ", " + ExactDouble(r.t) + ", " +
           ExactDouble(r.x) + ", " + ExactDouble(r.y) + ")";
  }
  return sql;
}

void CheckinStream::Insert(uint64_t statement_id) {
  Sent s;
  s.first_row = sent_.empty() ? 0 : sent_.back().end_row;
  s.end_row = s.first_row + size_.rows_per_insert;
  const std::string sql = InsertText(s.first_row, s.end_row);
  double wm = watermark_;
  for (size_t i = s.first_row; i < s.end_row; ++i) wm = std::max(wm, rows_[i].t);
  ++env_.outcome->attempted;
  if (!writer_) {
    env_.outcome->Failed("stream insert: not connected");
    return;
  }
  s.at = Clock::now();
  sgb::Result<sgb::server::QueryResult> r = sgb::Status::Internal("not run");
  {
    ScopedSpan span(*env_.spans, "stmt.stream_insert", statement_id);
    r = writer_->Query(sql);
  }
  s.ms = MillisSince(s.at);
  s.watermark = wm;
  s.recorded = env_.recording;
  const bool closing = EndsAtOrBelow(wm) > EndsAtOrBelow(watermark_);
  watermark_ = wm;
  sent_.push_back(s);
  if (!r.ok()) {
    env_.outcome->Failed("stream insert: " + r.status().ToString());
    return;
  }
  if (!env_.recording) return;
  env_.recorder->Add("stream_insert", s.ms);
  (closing ? closing_ms_ : open_ms_).push_back(s.ms);
  acked_rows_ += static_cast<double>(size_.rows_per_insert);
  insert_wall_ms_ += s.ms;
}

void CheckinStream::Ping() {
  if (!writer_) return;
  const Clock::time_point t0 = Clock::now();
  sgb::Status s = sgb::Status::OK();
  {
    ScopedSpan span(*env_.spans, "server.ping");
    s = writer_->Ping();
  }
  if (s.ok()) env_.recorder->Add("ping", MillisSince(t0));
}

void CheckinStream::Probe(std::map<std::string, double>* layer) {
  const std::string insert = InsertText(0, size_.rows_per_insert);
  (*layer)["sql.parse_us"] += TimeCalls(*env_.spans, "sql.parse", 3, [&] {
    (void)sgb::sql::ParseStatement(insert);
  }) * 1000.0;
  (*layer)["server.ping_us"] = env_.recorder->MedianOf("ping") * 1000.0;
  (*layer)["continuous.differential_checks"] = Median(checks_);
  (*layer)["continuous.open_insert_ms"] = Median(open_ms_);
  (*layer)["continuous.closing_insert_ms"] = Median(closing_ms_);
}

double CheckinStream::events_per_close() const {
  return window_closes_ > 0 ? events_read_ / window_closes_ : std::nan("");
}

double CheckinStream::ingest_rows_per_s() const {
  return insert_wall_ms_ > 0 ? acked_rows_ / (insert_wall_ms_ / 1000.0)
                             : std::nan("");
}

void CheckinStream::EndSegment() {
  // Differential checks of a full segment: a count over a fixed input.
  if (writer_ && SegmentDone()) {
    auto r = writer_->Query(
        "SELECT differential_checks FROM system.continuous_queries");
    if (r.ok()) {
      double checks = 0;
      for (const auto& row : r.value().rows) checks += std::atof(row[0].c_str());
      checks_.push_back(checks);
    }
  }
  Teardown();
#ifdef __GLIBC__
  // The segment's database is gone, but glibc keeps its freed pages in the
  // arenas of the server threads that allocated them, and the next
  // segment's threads may take other arenas. Without handing the pages
  // back, peak RSS would grow with every segment, i.e. with throughput.
  malloc_trim(0);
#endif
  std::vector<Received> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.swap(closes_);
  }
  if (sent_.empty()) return;

  // Windows the model says have closed: every window that holds a sent row
  // and ends at or below the final watermark.
  std::set<int64_t> expected;
  for (size_t i = 0; i < sent_.back().end_row; ++i) {
    const double t = rows_[i].t;
    const int64_t hi = static_cast<int64_t>(std::floor(t / kWindowAdvance));
    const int64_t lo =
        static_cast<int64_t>(std::floor((t - kWindowSize) / kWindowAdvance)) + 1;
    for (int64_t w = lo; w <= hi; ++w) {
      if (w * kWindowAdvance + kWindowSize <= sent_.back().watermark) {
        expected.insert(w);
      }
    }
  }

  std::map<int64_t, double> latency;  // per window, until both queries closed
  std::map<std::string, std::set<int64_t>> closed;
  for (const Received& rec : events) {
    const sgb::server::DeltaEvent& e = rec.event;
    ++window_closes_;
    const int64_t w = std::llround(e.window_start / kWindowAdvance);
    if (!closed[e.query].insert(w).second) {
      env_.outcome->Wrong(e.query + ": a window closed twice");
      continue;
    }
    // The INSERT that carried the watermark past the window's end.
    auto it = std::lower_bound(
        sent_.begin(), sent_.end(), e.window_end,
        [](const Sent& s, double end) { return s.watermark < end; });
    if (it == sent_.end()) {
      env_.outcome->Wrong(e.query + ": a window closed before its end");
      continue;
    }
    if (it->recorded) {
      const double ms =
          std::chrono::duration<double, std::milli>(rec.at - it->at).count();
      latency[w] = std::max(latency[w], ms);
    }
    // Rows that reached the window: sent by that INSERT or earlier.
    std::vector<Vec3> pts;
    for (size_t i = 0; i < it->end_row; ++i) {
      if (rows_[i].t >= e.window_start && rows_[i].t < e.window_end) {
        pts.push_back({rows_[i].x, rows_[i].y, 0});
      }
    }
    const std::string problem =
        CheckWindowClose(pts, size_.eps, e.query == "cq_any", e.groups);
    if (!problem.empty()) env_.outcome->Wrong(e.query + ": " + problem);
  }
  for (const char* q : {"cq_any", "cq_all"}) {
    if (closed[q] != expected) {
      env_.outcome->Wrong(std::string(q) +
                          ": closed windows differ from the watermark model");
    }
  }
  for (const auto& [w, ms] : latency) close_ms_.push_back(ms);
  sent_.clear();
}

}  // namespace perfbench
