#ifndef SGB_SERVER_PROTOCOL_H_
#define SGB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace sgb::engine {
struct DeltaBatch;  // engine/continuous.h
}

namespace sgb::server {

/// The line-based wire protocol both the server loop and the client driver
/// speak (docs/SERVER.md "Wire protocol"). Every message is one
/// '\n'-terminated line; fields within result lines are tab-separated with
/// '\\', '\t', '\n', '\r' escaped, so arbitrary SQL strings round-trip.
///
/// Client -> server:
///   QUERY <sql>            run one statement
///   PREPARE <name> <sql>   validate + bind a named statement
///   EXECUTE <name>         run a prepared statement
///   SUBSCRIBE <name>       stream a continuous query's group deltas
///   UNSUBSCRIBE <name>     stop streaming that query's deltas
///   PING                   liveness probe
///   QUIT                   close the session
///
/// Server -> client:
///   OK <nrows> <ncols>     then 1 header line + nrows data lines
///                          (ncols = 0 means no header/rows follow)
///   ERR <code> <message>   statement failed; code is a Status token
///   PONG                   reply to PING
///   BYE                    reply to QUIT; the server closes after it
///   EVENT <fields>         asynchronous group-delta push for a SUBSCRIBEd
///                          continuous query (docs/STREAMING.md): six
///                          tab-separated escaped fields — query,
///                          window_start, window_end, kind, point, groups.
///                          Responses are written atomically, so an EVENT
///                          line only ever appears where a response line
///                          could begin, never inside a result set.

/// One parsed client command.
struct Command {
  enum class Kind {
    kQuery,
    kPrepare,
    kExecute,
    kSubscribe,
    kUnsubscribe,
    kPing,
    kQuit,
  };
  Kind kind = Kind::kPing;
  std::string name;  ///< PREPARE/EXECUTE/SUBSCRIBE/UNSUBSCRIBE name
  std::string sql;   ///< QUERY/PREPARE statement text
};

/// Parses one client line. InvalidArgument on unknown verbs or missing
/// operands; the server answers those with an ERR line and keeps serving.
Result<Command> ParseCommand(const std::string& line);

/// Escapes '\\' -> "\\\\", '\t' -> "\\t", '\n' -> "\\n", '\r' -> "\\r".
std::string EscapeField(const std::string& raw);

/// Inverse of EscapeField; unknown escapes pass through verbatim.
std::string UnescapeField(std::string_view field);

/// One decoded EVENT push from a SUBSCRIBEd continuous query
/// (docs/STREAMING.md): a group delta of one window close.
struct DeltaEvent {
  std::string query;
  double window_start = 0.0;
  double window_end = 0.0;
  std::string kind;    ///< group_formed | member_added | groups_merged |
                       ///< window_closed
  int64_t point = -1;  ///< arrival sequence number (-1 on window_closed)
  int64_t groups = 0;
};

/// The EVENT lines of one window close, one per group delta:
///   EVENT <query>\t<start>\t<end>\t<kind>\t<point>\t<groups>\n
/// with the query and kind escaped and the window bounds as "%.17g", so
/// they round-trip exactly.
std::string FormatEventLines(const engine::DeltaBatch& batch);

/// Decodes one EVENT line (without its '\n'). IoError("malformed EVENT
/// line: ...") unless it carries exactly six fields whose bounds, point
/// and count parse in full.
Result<DeltaEvent> ParseEventLine(std::string_view line);

/// Tab-separated escaped column names of `table`.
std::string FormatHeader(const engine::Table& table);

/// Tab-separated escaped values of one row (NULL prints as "NULL").
std::string FormatRow(const engine::Row& row);

/// Stable short tokens for Status codes on ERR lines ("invalid_argument",
/// "cancelled", ...) and the inverse mapping (kInternal for unknown
/// tokens, so newer servers degrade gracefully against older clients).
std::string StatusCodeToken(Status::Code code);
Status::Code ParseStatusCodeToken(const std::string& token);

}  // namespace sgb::server

#endif  // SGB_SERVER_PROTOCOL_H_
