#ifndef SGB_COMMON_SOCKET_H_
#define SGB_COMMON_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

namespace sgb {

/// Thin RAII + Status wrappers over the POSIX socket calls the server
/// front-end needs: a unix-domain or TCP-loopback listener, blocking
/// connect, and line-oriented read/write. Nothing here knows about SQL or
/// the wire protocol — src/server builds both on top of this.
///
/// Fault sites (docs/ROBUSTNESS.md): `server.accept`, `server.read`, and
/// `server.write` are planted on the three failure-prone operations, so
/// tests can drive every network error path deterministically.

/// Owns one file descriptor; closes it on destruction. Movable, not
/// copyable. An invalid socket holds fd -1.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Gives up ownership: returns the descriptor and leaves -1 behind.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor now (idempotent).
  void Close();

  /// Shuts down both directions without closing the descriptor — unblocks
  /// a peer (or another thread) blocked in read/accept on this socket.
  void Shutdown();

  /// Writes all of `data`, retrying on short writes and EINTR; SIGPIPE is
  /// suppressed. Checks the `server.write` fault site once per call.
  Status WriteAll(const std::string& data);

  /// Reads up to `cap` bytes into `buf`; returns the byte count, 0 at EOF.
  /// Checks the `server.read` fault site once per call.
  Result<size_t> Read(char* buf, size_t cap);

 private:
  int fd_ = -1;
};

/// Buffered newline-delimited reader over a Socket (the wire protocol and
/// the client driver both speak in lines).
class LineReader {
 public:
  explicit LineReader(Socket* socket) : socket_(socket) {}

  /// Reads the next '\n'-terminated line into `line` (terminator stripped,
  /// a trailing '\r' too). Returns false at clean EOF with no buffered
  /// partial line; IoError on read failure or when a line exceeds
  /// `max_line_bytes`.
  Result<bool> ReadLine(std::string* line, size_t max_line_bytes = 1 << 20);

 private:
  Socket* socket_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

/// A listening socket accepting connections on a unix path or a TCP
/// loopback port. One thread may block in Accept() while another calls
/// Close(): the descriptor is an atomic that Accept() loads once.
class Listener {
 public:
  /// Binds and listens on a unix-domain socket at `path` (unlinking any
  /// stale socket file first). The path must fit sockaddr_un (~100 bytes).
  static Result<Listener> ListenUnix(const std::string& path);

  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral port
  /// (read it back from port()).
  static Result<Listener> ListenTcp(uint16_t port);

  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept
      : fd_(other.fd_.exchange(-1)),
        unix_path_(std::move(other.unix_path_)),
        port_(other.port_) {
    other.unix_path_.clear();
    other.port_ = 0;
  }
  Listener& operator=(Listener&& other) noexcept;

  bool valid() const { return fd_.load() >= 0; }
  /// Bound TCP port (0 for unix listeners).
  uint16_t port() const { return port_; }
  const std::string& unix_path() const { return unix_path_; }

  /// Blocks until a connection arrives. Checks the `server.accept` fault
  /// site; IoError once the listener has been Close()d from another thread.
  Result<Socket> Accept();

  /// Closes the listening socket, unblocking a concurrent Accept().
  void Close();

 private:
  std::atomic<int> fd_{-1};
  std::string unix_path_;  ///< unlinked on destruction
  uint16_t port_ = 0;
};

/// Blocking client connect to a unix-domain socket.
Result<Socket> ConnectUnix(const std::string& path);

/// Blocking client connect to 127.0.0.1:`port`.
Result<Socket> ConnectTcp(uint16_t port);

}  // namespace sgb

#endif  // SGB_COMMON_SOCKET_H_
