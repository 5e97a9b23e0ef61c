#include "server/server.h"

#include <poll.h>

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "server/protocol.h"

// Linux defines POLLRDHUP (peer shut down its write side) behind
// _GNU_SOURCE; the value is stable ABI, so define it when absent and fall
// back to it being a no-op bit elsewhere.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace sgb::server {

namespace {

constexpr auto kWatchdogInterval = std::chrono::milliseconds(20);

/// Round-trip double rendering for EVENT window bounds.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One EVENT line per group delta (protocol.h): six tab-separated escaped
/// fields after the verb.
std::string FormatEventLines(const engine::DeltaBatch& batch) {
  std::string out;
  for (const engine::GroupDelta& delta : batch.deltas) {
    out += "EVENT ";
    out += EscapeField(batch.query);
    out.push_back('\t');
    out += FormatDouble(batch.window_start);
    out.push_back('\t');
    out += FormatDouble(batch.window_end);
    out.push_back('\t');
    out += EscapeField(delta.kind);
    out.push_back('\t');
    out += std::to_string(delta.point);
    out.push_back('\t');
    out += std::to_string(delta.groups);
    out.push_back('\n');
  }
  return out;
}

}  // namespace

Server::Server(const engine::Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.load()) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.unix_path.empty() && !options_.tcp) {
    return Status::InvalidArgument(
        "server needs a unix path and/or a TCP listener");
  }
  if (!options_.unix_path.empty()) {
    auto listener = Listener::ListenUnix(options_.unix_path);
    if (!listener.ok()) return listener.status();
    unix_listener_ = std::move(listener).value();
  }
  if (options_.tcp) {
    auto listener = Listener::ListenTcp(options_.tcp_port);
    if (!listener.ok()) {
      unix_listener_.Close();
      return listener.status();
    }
    tcp_listener_ = std::move(listener).value();
    tcp_port_ = tcp_listener_.port();
  }
  started_.store(true);
  if (unix_listener_.valid()) {
    accept_threads_.emplace_back(
        [this] { AcceptLoop(&unix_listener_, "unix"); });
  }
  if (tcp_listener_.valid()) {
    accept_threads_.emplace_back(
        [this] { AcceptLoop(&tcp_listener_, "tcp"); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) {
    // A concurrent Stop() is already tearing down; let it finish.
    for (auto& t : accept_threads_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  unix_listener_.Close();
  tcp_listener_.Close();
  for (auto& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  accept_threads_.clear();
  if (watchdog_.joinable()) watchdog_.join();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    // Unblock the serve loop's read and fail its running statement.
    conn->socket.Shutdown();
    conn->session->CancelActive();
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  obs::MetricsRegistry::Global().GetGauge("server.active_sessions").Set(0);
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  size_t active = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

void Server::ReapFinished() {
  // Join outside conns_mu_, as Stop() does: a finishing connection thread
  // takes the same mutex (active_connections()) after setting `done`.
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::AcceptLoop(Listener* listener, const char* transport) {
  auto& registry = obs::MetricsRegistry::Global();
  while (!stopping_.load()) {
    auto accepted = listener->Accept();
    if (!accepted.ok()) {
      if (stopping_.load() || !listener->valid()) break;
      // Transient (possibly fault-injected) accept failure: keep serving.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    ReapFinished();
    Socket socket = std::move(accepted).value();
    if (active_connections() >= options_.max_sessions) {
      registry.GetCounter("server.shed_connections").Add(1);
      // Best effort: the client gets a parseable ERR before the close.
      (void)socket.WriteAll("ERR resource_exhausted busy: session limit (" +
                            std::to_string(options_.max_sessions) +
                            ") reached\n");
      continue;  // socket closes as it goes out of scope
    }
    auto conn = std::make_shared<Connection>();
    const std::string peer =
        std::string(transport) + ":fd=" + std::to_string(socket.fd());
    conn->socket = std::move(socket);
    conn->session = db_->CreateSession(peer);
    total_connections_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("server.connections").Add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    registry.GetGauge("server.active_sessions")
        .Set(static_cast<double>(active_connections()));
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(const std::shared_ptr<Connection>& conn) {
  LineReader reader(&conn->socket);
  std::string line;
  for (;;) {
    auto more = reader.ReadLine(&line);
    if (!more.ok() || !more.value()) break;  // read error or clean EOF
    if (!ServeCommand(conn, line)) break;
  }
  // Detach this connection's delta subscriptions before the socket dies so
  // window closes stop paying for doomed writes.
  {
    std::lock_guard<std::mutex> lock(conn->subs_mu);
    for (const auto& [name, id] : conn->subscriptions) {
      db_->continuous().Unsubscribe(id);
    }
    conn->subscriptions.clear();
  }
  // Shutdown (not Close): the watchdog may hold this Connection and poll
  // its fd; keeping the descriptor open prevents fd-number reuse races.
  conn->socket.Shutdown();
  conn->done.store(true, std::memory_order_release);
  obs::MetricsRegistry::Global()
      .GetGauge("server.active_sessions")
      .Set(static_cast<double>(active_connections()));
}

bool Server::ServeCommand(const std::shared_ptr<Connection>& conn_ptr,
                          const std::string& line) {
  Connection& conn = *conn_ptr;
  auto& registry = obs::MetricsRegistry::Global();
  auto parsed = ParseCommand(line);
  if (!parsed.ok()) return WriteError(conn, parsed.status()).ok();
  const Command& cmd = parsed.value();
  switch (cmd.kind) {
    case Command::Kind::kPing:
      return WriteLocked(conn, "PONG\n").ok();
    case Command::Kind::kQuit:
      (void)WriteLocked(conn, "BYE\n");
      return false;
    case Command::Kind::kPrepare: {
      registry.GetCounter("server.statements").Add(1);
      const Status status =
          db_->PrepareStatement(*conn.session, cmd.name, cmd.sql);
      if (!status.ok()) return WriteError(conn, status).ok();
      return WriteLocked(conn, "OK 0 0\n").ok();
    }
    case Command::Kind::kSubscribe: {
      registry.GetCounter("server.statements").Add(1);
      const Status status = SubscribeConnection(conn_ptr, cmd.name);
      if (!status.ok()) return WriteError(conn, status).ok();
      return WriteLocked(conn, "OK 0 0\n").ok();
    }
    case Command::Kind::kUnsubscribe: {
      registry.GetCounter("server.statements").Add(1);
      const Status status = UnsubscribeConnection(conn, cmd.name);
      if (!status.ok()) return WriteError(conn, status).ok();
      return WriteLocked(conn, "OK 0 0\n").ok();
    }
    case Command::Kind::kQuery:
    case Command::Kind::kExecute: {
      registry.GetCounter("server.statements").Add(1);
      conn.busy.store(true, std::memory_order_release);
      Result<engine::Table> result =
          cmd.kind == Command::Kind::kQuery
              ? db_->Query(*conn.session, cmd.sql)
              : db_->ExecutePrepared(*conn.session, cmd.name);
      conn.busy.store(false, std::memory_order_release);
      if (!result.ok()) return WriteError(conn, result.status()).ok();
      return WriteTable(conn, result.value()).ok();
    }
  }
  return false;
}

Status Server::SubscribeConnection(const std::shared_ptr<Connection>& conn,
                                   const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(conn->subs_mu);
    if (conn->subscriptions.count(name) != 0) {
      return Status::InvalidArgument("already subscribed to '" + name + "'");
    }
  }
  // The callback runs on whatever thread drives a window close. It holds
  // the connection weakly: once the connection is gone (or its socket
  // write fails) it returns false, detaching itself.
  std::weak_ptr<Connection> weak = conn;
  auto subscription = db_->continuous().Subscribe(
      name, [weak](const engine::DeltaBatch& batch) {
        std::shared_ptr<Connection> conn = weak.lock();
        if (conn == nullptr || conn->done.load(std::memory_order_acquire)) {
          return false;
        }
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (!conn->socket.WriteAll(FormatEventLines(batch)).ok()) {
          return false;
        }
        obs::MetricsRegistry::Global()
            .GetCounter("server.delta_batches")
            .Add(1);
        return true;
      });
  if (!subscription.ok()) return subscription.status();
  std::lock_guard<std::mutex> lock(conn->subs_mu);
  conn->subscriptions.emplace(name, subscription.value());
  return Status::OK();
}

Status Server::UnsubscribeConnection(Connection& conn,
                                     const std::string& name) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(conn.subs_mu);
    auto it = conn.subscriptions.find(name);
    if (it == conn.subscriptions.end()) {
      return Status::NotFound("not subscribed to '" + name + "'");
    }
    id = it->second;
    conn.subscriptions.erase(it);
  }
  db_->continuous().Unsubscribe(id);
  return Status::OK();
}

Status Server::WriteLocked(Connection& conn, const std::string& out) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  return conn.socket.WriteAll(out);
}

Status Server::WriteTable(Connection& conn, const engine::Table& table) {
  const size_t ncols = table.schema().size();
  std::string out = "OK " + std::to_string(table.NumRows()) + " " +
                    std::to_string(ncols) + "\n";
  if (ncols > 0) {
    out += FormatHeader(table);
    out.push_back('\n');
    for (const engine::Row& row : table.rows()) {
      out += FormatRow(row);
      out.push_back('\n');
    }
  }
  return WriteLocked(conn, out);
}

Status Server::WriteError(Connection& conn, const Status& error) {
  return WriteLocked(conn, "ERR " + StatusCodeToken(error.code()) + " " +
                               EscapeField(error.message()) + "\n");
}

void Server::WatchdogLoop() {
  while (!stopping_.load()) {
    std::vector<std::shared_ptr<Connection>> busy;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) {
        if (!conn->done.load(std::memory_order_acquire) &&
            conn->busy.load(std::memory_order_acquire) &&
            conn->socket.valid()) {
          busy.push_back(conn);
        }
      }
    }
    for (const auto& conn : busy) {
      pollfd pfd{};
      pfd.fd = conn->socket.fd();
      pfd.events = POLLRDHUP;
      const int rc = ::poll(&pfd, 1, 0);
      if (rc > 0 &&
          (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        // The peer vanished mid-statement: cancel this session's queries
        // (they log as `cancelled`); every other session is untouched.
        obs::MetricsRegistry::Global()
            .GetCounter("server.disconnect_cancels")
            .Add(1);
        conn->session->CancelActive();
      }
    }
    std::this_thread::sleep_for(kWatchdogInterval);
  }
}

}  // namespace sgb::server
