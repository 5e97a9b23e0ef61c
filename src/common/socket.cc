#include "common/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault_injection.h"

namespace sgb {

// The three failure-prone network operations of the server front-end; armed
// faults simulate a flaky client, a torn connection, or accept() running
// out of descriptors (tests/engine/governance_test.cc carries the coverage
// cases).
static FaultSite g_accept_fault("server.accept", Status::Code::kIoError);
static FaultSite g_read_fault("server.read", Status::Code::kIoError);
static FaultSite g_write_fault("server.write", Status::Code::kIoError);

namespace {

Status Errno(const char* op) {
  return Status::IoError(std::string(op) + ": " + std::strerror(errno));
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status Socket::WriteAll(const std::string& data) {
  SGB_RETURN_IF_ERROR(g_write_fault.Check());
  if (fd_ < 0) return Status::IoError("write on closed socket");
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> Socket::Read(char* buf, size_t cap) {
  SGB_RETURN_IF_ERROR(g_read_fault.Check());
  if (fd_ < 0) return Status::IoError("read on closed socket");
  while (true) {
    const ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    return static_cast<size_t>(n);
  }
}

Result<bool> LineReader::ReadLine(std::string* line, size_t max_line_bytes) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      size_t end = nl;
      if (end > pos_ && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, pos_, end - pos_);
      pos_ = nl + 1;
      // Compact once the consumed prefix dominates the buffer.
      if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    if (buffer_.size() - pos_ > max_line_bytes) {
      return Status::IoError("line exceeds " +
                             std::to_string(max_line_bytes) + " bytes");
    }
    if (eof_) {
      if (pos_ < buffer_.size()) {
        return Status::IoError("connection closed mid-line");
      }
      return false;
    }
    char chunk[4096];
    auto n = socket_->Read(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, n.value());
  }
}

Listener::~Listener() { Close(); }

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1));
    unix_path_ = std::move(other.unix_path_);
    port_ = other.port_;
    other.unix_path_.clear();
    other.port_ = 0;
  }
  return *this;
}

void Listener::Close() {
  // The exchange hands the descriptor to exactly one closer, and a later
  // Accept() loads -1. shutdown() before close() wakes a thread already
  // blocked in accept() on it with an error instead of racing the close.
  const int owned = fd_.exchange(-1);
  if (owned >= 0) {
    ::shutdown(owned, SHUT_RDWR);
    ::close(owned);
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Result<Listener> Listener::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  ::unlink(path.c_str());  // stale socket file from a crashed server
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, SOMAXCONN) != 0) return Errno("listen");

  Listener listener;
  listener.fd_.store(sock.Release());
  listener.unix_path_ = path;
  return listener;
}

Result<Listener> Listener::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd, SOMAXCONN) != 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }

  Listener listener;
  listener.fd_.store(sock.Release());
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<Socket> Listener::Accept() {
  SGB_RETURN_IF_ERROR(g_accept_fault.Check());
  const int listen_fd = fd_.load();
  if (listen_fd < 0) return Status::IoError("accept on closed listener");
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return Errno("accept");
    }
    return Socket(fd);
  }
}

Result<Socket> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  return sock;
}

Result<Socket> ConnectTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  return sock;
}

}  // namespace sgb
