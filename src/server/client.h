#ifndef SGB_SERVER_CLIENT_H_
#define SGB_SERVER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "server/protocol.h"

namespace sgb::server {

/// One query's decoded result set: column names plus rows of unescaped
/// string fields (NULL values arrive as the literal string "NULL", exactly
/// as the wire carries them). Tests compare these row vectors directly for
/// the bit-identical-divergence check against single-session replay.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Driver-style synchronous client for the line protocol (protocol.h).
/// Not thread-safe: one Client per thread, like a real driver connection.
/// Movable (the socket and reader live on the heap), not copyable.
class Client {
 public:
  /// Connect over the unix-domain socket at `path`.
  static Result<Client> ConnectUnixSocket(const std::string& path);

  /// Connect to 127.0.0.1:`port`.
  static Result<Client> ConnectLoopback(uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Runs one SQL statement and decodes the result set.
  Result<QueryResult> Query(const std::string& sql);

  /// Binds `sql` to `name` on the server-side session.
  Status Prepare(const std::string& name, const std::string& sql);

  /// Runs a previously prepared statement.
  Result<QueryResult> Execute(const std::string& name);

  /// Attaches this connection to the named continuous query: every window
  /// close from now on pushes its group deltas as EVENT lines, surfaced
  /// through NextEvent().
  Status Subscribe(const std::string& name);

  /// Detaches a Subscribe(); already-pushed events stay readable.
  Status Unsubscribe(const std::string& name);

  /// Pops the oldest buffered delta event; when none is buffered, blocks
  /// reading the socket until one arrives (drive window closes from
  /// another connection, or Unsubscribe first to avoid blocking forever).
  Result<DeltaEvent> NextEvent();

  /// Buffered delta events waiting in NextEvent()'s queue.
  size_t pending_events() const { return events_.size(); }

  /// Liveness probe; ok when the server answers PONG.
  Status Ping();

  /// Polite close: sends QUIT, waits for BYE, closes the socket. Further
  /// calls fail with IoError. Safe to skip — dropping the Client just
  /// closes the connection.
  Status Quit();

  /// Severs the connection without QUIT — from the server's point of view
  /// the peer vanished. Used by the disconnect-cancellation tests.
  void Abort();

  bool connected() const { return socket_ && socket_->valid(); }

 private:
  explicit Client(std::unique_ptr<Socket> socket);

  /// Sends `line` (terminator appended) and decodes the response.
  Result<QueryResult> RoundTrip(const std::string& line);

  /// Reads the next *response* line, buffering any interleaved EVENT
  /// pushes into events_. Returns false on clean EOF.
  Result<bool> ReadResponseLine(std::string* line);

  /// Parses one "EVENT ..." wire line and appends it to events_.
  Status BufferEventLine(const std::string& line);

  std::unique_ptr<Socket> socket_;
  std::unique_ptr<LineReader> reader_;  ///< points at *socket_
  std::deque<DeltaEvent> events_;       ///< EVENT pushes not yet consumed
};

}  // namespace sgb::server

#endif  // SGB_SERVER_CLIENT_H_
