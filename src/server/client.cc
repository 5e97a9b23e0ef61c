#include "server/client.h"

#include <utility>

#include "server/protocol.h"

namespace sgb::server {

namespace {

/// Splits a wire line on literal tabs and unescapes each field. Escaping
/// guarantees data tabs never appear literally, so this is exact.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(UnescapeField(line.substr(start)));
      return fields;
    }
    fields.push_back(UnescapeField(line.substr(start, tab - start)));
    start = tab + 1;
  }
}

std::string NextToken(const std::string& line, size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  const size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  std::string token = line.substr(start, *pos - start);
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  return token;
}

}  // namespace

Client::Client(std::unique_ptr<Socket> socket)
    : socket_(std::move(socket)),
      reader_(std::make_unique<LineReader>(socket_.get())) {}

Result<Client> Client::ConnectUnixSocket(const std::string& path) {
  auto socket = ConnectUnix(path);
  if (!socket.ok()) return socket.status();
  return Client(std::make_unique<Socket>(std::move(socket).value()));
}

Result<Client> Client::ConnectLoopback(uint16_t port) {
  auto socket = ConnectTcp(port);
  if (!socket.ok()) return socket.status();
  return Client(std::make_unique<Socket>(std::move(socket).value()));
}

Status Client::BufferEventLine(const std::string& line) {
  Result<DeltaEvent> event = ParseEventLine(line);
  if (!event.ok()) return event.status();
  events_.push_back(std::move(event).value());
  return Status::OK();
}

Result<bool> Client::ReadResponseLine(std::string* line) {
  for (;;) {
    auto more = reader_->ReadLine(line);
    if (!more.ok() || !more.value()) return more;
    if (line->rfind("EVENT ", 0) != 0) return true;
    // Asynchronous group-delta push (protocol.h): buffer it and keep
    // reading for the actual response.
    SGB_RETURN_IF_ERROR(BufferEventLine(*line));
  }
}

Result<QueryResult> Client::RoundTrip(const std::string& line) {
  if (!connected()) return Status::IoError("client is not connected");
  SGB_RETURN_IF_ERROR(socket_->WriteAll(line + "\n"));
  std::string response;
  auto more = ReadResponseLine(&response);
  if (!more.ok()) return more.status();
  if (!more.value()) {
    return Status::IoError("server closed the connection");
  }
  size_t pos = 0;
  const std::string verb = NextToken(response, &pos);
  if (verb == "ERR") {
    const std::string code = NextToken(response, &pos);
    return Status(ParseStatusCodeToken(code),
                  UnescapeField(response.substr(pos)));
  }
  if (verb != "OK") {
    return Status::IoError("unexpected server response: " + response);
  }
  size_t nrows = 0;
  size_t ncols = 0;
  try {
    nrows = std::stoull(NextToken(response, &pos));
    ncols = std::stoull(NextToken(response, &pos));
  } catch (...) {
    return Status::IoError("malformed OK line: " + response);
  }
  QueryResult result;
  if (ncols == 0) return result;
  std::string row_line;
  for (size_t i = 0; i <= nrows; ++i) {  // header + nrows data lines
    auto got = reader_->ReadLine(&row_line);
    if (!got.ok()) return got.status();
    if (!got.value()) {
      return Status::IoError("connection closed mid result set");
    }
    std::vector<std::string> fields = SplitFields(row_line);
    if (fields.size() != ncols) {
      return Status::IoError("malformed result row (expected " +
                             std::to_string(ncols) + " fields, got " +
                             std::to_string(fields.size()) + ")");
    }
    if (i == 0) {
      result.columns = std::move(fields);
    } else {
      result.rows.push_back(std::move(fields));
    }
  }
  return result;
}

Result<QueryResult> Client::Query(const std::string& sql) {
  return RoundTrip("QUERY " + EscapeField(sql));
}

Status Client::Prepare(const std::string& name, const std::string& sql) {
  return RoundTrip("PREPARE " + name + " " + EscapeField(sql)).status();
}

Result<QueryResult> Client::Execute(const std::string& name) {
  return RoundTrip("EXECUTE " + name);
}

Status Client::Subscribe(const std::string& name) {
  return RoundTrip("SUBSCRIBE " + name).status();
}

Status Client::Unsubscribe(const std::string& name) {
  return RoundTrip("UNSUBSCRIBE " + name).status();
}

Result<DeltaEvent> Client::NextEvent() {
  while (events_.empty()) {
    if (!connected()) return Status::IoError("client is not connected");
    // Unlike ReadResponseLine, return after the FIRST buffered event —
    // no response line is in flight, so looping for one would block
    // forever. A non-EVENT line here is a protocol violation.
    std::string line;
    auto more = reader_->ReadLine(&line);
    if (!more.ok()) return more.status();
    if (!more.value()) {
      return Status::IoError("server closed the connection");
    }
    if (line.rfind("EVENT ", 0) != 0) {
      return Status::IoError("unexpected server line while waiting for an "
                             "event: " + line);
    }
    SGB_RETURN_IF_ERROR(BufferEventLine(line));
  }
  DeltaEvent event = std::move(events_.front());
  events_.pop_front();
  return event;
}

Status Client::Ping() {
  if (!connected()) return Status::IoError("client is not connected");
  SGB_RETURN_IF_ERROR(socket_->WriteAll("PING\n"));
  std::string response;
  auto more = ReadResponseLine(&response);
  if (!more.ok()) return more.status();
  if (!more.value() || response != "PONG") {
    return Status::IoError("expected PONG, got '" + response + "'");
  }
  return Status::OK();
}

Status Client::Quit() {
  if (!connected()) return Status::IoError("client is not connected");
  SGB_RETURN_IF_ERROR(socket_->WriteAll("QUIT\n"));
  std::string response;
  auto more = ReadResponseLine(&response);
  socket_->Close();
  if (!more.ok()) return more.status();
  if (!more.value() || response != "BYE") {
    return Status::IoError("expected BYE, got '" + response + "'");
  }
  return Status::OK();
}

void Client::Abort() {
  // Shutdown, not close: a close while another thread of this process is
  // blocked in recv on the fd keeps the kernel socket alive (no FIN is
  // sent) until that recv returns, so the server would never see the
  // hangup. shutdown() sends the FIN immediately, wakes the reader, and
  // leaves the descriptor for the destructor to release.
  if (socket_) socket_->Shutdown();
}

}  // namespace sgb::server
