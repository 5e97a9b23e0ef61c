#include "server/protocol.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "engine/continuous.h"

namespace sgb::server {

namespace {

/// First whitespace-delimited token of `line` starting at `*pos`,
/// advancing `*pos` past it and any following spaces.
std::string NextToken(const std::string& line, size_t* pos) {
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  const size_t start = *pos;
  while (*pos < line.size() && line[*pos] != ' ') ++*pos;
  std::string token = line.substr(start, *pos - start);
  while (*pos < line.size() && line[*pos] == ' ') ++*pos;
  return token;
}

}  // namespace

Result<Command> ParseCommand(const std::string& line) {
  size_t pos = 0;
  std::string verb = NextToken(line, &pos);
  for (char& c : verb) c = static_cast<char>(std::toupper(c));
  Command cmd;
  if (verb == "PING") {
    cmd.kind = Command::Kind::kPing;
    return cmd;
  }
  if (verb == "QUIT") {
    cmd.kind = Command::Kind::kQuit;
    return cmd;
  }
  if (verb == "QUERY") {
    cmd.kind = Command::Kind::kQuery;
    cmd.sql = UnescapeField(line.substr(pos));
    if (cmd.sql.empty()) {
      return Status::InvalidArgument("QUERY requires a statement");
    }
    return cmd;
  }
  if (verb == "PREPARE") {
    cmd.kind = Command::Kind::kPrepare;
    cmd.name = NextToken(line, &pos);
    cmd.sql = UnescapeField(line.substr(pos));
    if (cmd.name.empty() || cmd.sql.empty()) {
      return Status::InvalidArgument("PREPARE requires a name and a statement");
    }
    return cmd;
  }
  if (verb == "EXECUTE") {
    cmd.kind = Command::Kind::kExecute;
    cmd.name = NextToken(line, &pos);
    if (cmd.name.empty()) {
      return Status::InvalidArgument("EXECUTE requires a statement name");
    }
    return cmd;
  }
  if (verb == "SUBSCRIBE") {
    cmd.kind = Command::Kind::kSubscribe;
    cmd.name = NextToken(line, &pos);
    if (cmd.name.empty()) {
      return Status::InvalidArgument(
          "SUBSCRIBE requires a continuous query name");
    }
    return cmd;
  }
  if (verb == "UNSUBSCRIBE") {
    cmd.kind = Command::Kind::kUnsubscribe;
    cmd.name = NextToken(line, &pos);
    if (cmd.name.empty()) {
      return Status::InvalidArgument(
          "UNSUBSCRIBE requires a continuous query name");
    }
    return cmd;
  }
  return Status::InvalidArgument(
      "unknown command '" + verb +
      "' (expected QUERY, PREPARE, EXECUTE, SUBSCRIBE, UNSUBSCRIBE, PING, "
      "or QUIT)");
}

std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\' || i + 1 >= field.size()) {
      out.push_back(field[i]);
      continue;
    }
    const char next = field[++i];
    switch (next) {
      case '\\':
        out.push_back('\\');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      default:
        out.push_back('\\');
        out.push_back(next);
    }
  }
  return out;
}

std::string FormatHeader(const engine::Table& table) {
  std::string out;
  const engine::Schema& schema = table.schema();
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out.push_back('\t');
    out += EscapeField(schema.column(i).name);
  }
  return out;
}

std::string FormatRow(const engine::Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back('\t');
    out += row[i].is_null() ? "NULL" : EscapeField(row[i].ToString());
  }
  return out;
}

std::string StatusCodeToken(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "ok";
    case Status::Code::kInvalidArgument:
      return "invalid_argument";
    case Status::Code::kNotFound:
      return "not_found";
    case Status::Code::kParseError:
      return "parse_error";
    case Status::Code::kBindError:
      return "bind_error";
    case Status::Code::kNotSupported:
      return "not_supported";
    case Status::Code::kInternal:
      return "internal";
    case Status::Code::kResourceExhausted:
      return "resource_exhausted";
    case Status::Code::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::Code::kCancelled:
      return "cancelled";
    case Status::Code::kIoError:
      return "io_error";
  }
  return "internal";
}

Status::Code ParseStatusCodeToken(const std::string& token) {
  if (token == "ok") return Status::Code::kOk;
  if (token == "invalid_argument") return Status::Code::kInvalidArgument;
  if (token == "not_found") return Status::Code::kNotFound;
  if (token == "parse_error") return Status::Code::kParseError;
  if (token == "bind_error") return Status::Code::kBindError;
  if (token == "not_supported") return Status::Code::kNotSupported;
  if (token == "internal") return Status::Code::kInternal;
  if (token == "resource_exhausted") return Status::Code::kResourceExhausted;
  if (token == "deadline_exceeded") return Status::Code::kDeadlineExceeded;
  if (token == "cancelled") return Status::Code::kCancelled;
  if (token == "io_error") return Status::Code::kIoError;
  return Status::Code::kInternal;
}

std::string FormatEventLines(const engine::DeltaBatch& batch) {
  // "EVENT <query>\t<start>\t<end>\t" is the same on every line.
  std::string prefix = "EVENT " + EscapeField(batch.query);
  char bounds[64];
  const int len = std::snprintf(bounds, sizeof(bounds), "\t%.17g\t%.17g\t",
                                batch.window_start, batch.window_end);
  prefix.append(bounds, static_cast<size_t>(len));

  std::string out;
  // The prefix, the longest kind, two 20-digit integers, tabs, newline.
  out.reserve(batch.deltas.size() * (prefix.size() + 64));
  char digits[24];
  auto append_int = [&](int64_t v) {
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
    out.append(digits, end);
  };
  for (const engine::GroupDelta& delta : batch.deltas) {
    out += prefix;
    out += EscapeField(delta.kind);
    out.push_back('\t');
    append_int(delta.point);
    out.push_back('\t');
    append_int(delta.groups);
    out.push_back('\n');
  }
  return out;
}

Result<DeltaEvent> ParseEventLine(std::string_view line) {
  auto malformed = [line] {
    return Status::IoError("malformed EVENT line: " + std::string(line));
  };
  constexpr std::string_view kVerb = "EVENT ";
  if (line.substr(0, kVerb.size()) != kVerb) return malformed();
  std::string_view fields[6];
  std::string_view rest = line.substr(kVerb.size());
  for (size_t f = 0; f < 6; ++f) {
    const size_t tab = rest.find('\t');
    if ((tab == std::string_view::npos) != (f == 5)) return malformed();
    fields[f] = rest.substr(0, tab);
    if (tab != std::string_view::npos) rest.remove_prefix(tab + 1);
  }
  auto parse = [](std::string_view field, auto* value) {
    const auto [end, ec] =
        std::from_chars(field.data(), field.data() + field.size(), *value);
    return ec == std::errc() && end == field.data() + field.size();
  };
  DeltaEvent event;
  if (!parse(fields[1], &event.window_start) ||
      !parse(fields[2], &event.window_end) ||
      !parse(fields[4], &event.point) || !parse(fields[5], &event.groups)) {
    return malformed();
  }
  event.query = UnescapeField(fields[0]);
  event.kind = UnescapeField(fields[3]);
  return event;
}

}  // namespace sgb::server
