// Wire-protocol codec tests (docs/SERVER.md "Wire protocol"): command
// parsing, field escaping, result formatting, the Status code tokens ERR
// lines carry, and the EVENT lines of continuous-query pushes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/continuous.h"
#include "engine/table.h"
#include "server/protocol.h"

namespace sgb::server {
namespace {

TEST(ProtocolTest, ParsesQuery) {
  auto cmd = ParseCommand("QUERY SELECT 1 FROM t");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().kind, Command::Kind::kQuery);
  EXPECT_EQ(cmd.value().sql, "SELECT 1 FROM t");
}

TEST(ProtocolTest, VerbIsCaseInsensitive) {
  auto cmd = ParseCommand("query SELECT count(*) FROM pts");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().kind, Command::Kind::kQuery);
  EXPECT_EQ(cmd.value().sql, "SELECT count(*) FROM pts");
}

TEST(ProtocolTest, QueryUnescapesMultilineSql) {
  auto cmd = ParseCommand("QUERY SELECT *\\nFROM t\\tWHERE x = 'a\\\\b'");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd.value().sql, "SELECT *\nFROM t\tWHERE x = 'a\\b'");
}

TEST(ProtocolTest, ParsesPrepareAndExecute) {
  auto prepare = ParseCommand("PREPARE p1 SELECT count(*) FROM pts");
  ASSERT_TRUE(prepare.ok());
  EXPECT_EQ(prepare.value().kind, Command::Kind::kPrepare);
  EXPECT_EQ(prepare.value().name, "p1");
  EXPECT_EQ(prepare.value().sql, "SELECT count(*) FROM pts");

  auto execute = ParseCommand("EXECUTE p1");
  ASSERT_TRUE(execute.ok());
  EXPECT_EQ(execute.value().kind, Command::Kind::kExecute);
  EXPECT_EQ(execute.value().name, "p1");
}

TEST(ProtocolTest, ParsesPingAndQuit) {
  auto ping = ParseCommand("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().kind, Command::Kind::kPing);
  auto quit = ParseCommand("quit");
  ASSERT_TRUE(quit.ok());
  EXPECT_EQ(quit.value().kind, Command::Kind::kQuit);
}

TEST(ProtocolTest, RejectsMalformedCommands) {
  for (const char* bad : {"", "FROB x", "QUERY", "PREPARE p1", "EXECUTE"}) {
    auto cmd = ParseCommand(bad);
    ASSERT_FALSE(cmd.ok()) << "accepted: '" << bad << "'";
    EXPECT_EQ(cmd.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(ProtocolTest, EscapeRoundTripsControlCharacters) {
  const std::string nasty = "a\tb\\c\nd\re\\n";
  const std::string escaped = EscapeField(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(UnescapeField(escaped), nasty);
}

TEST(ProtocolTest, EscapeRoundTripsRandomStrings) {
  Rng rng(42);
  const char alphabet[] = "ab\\\t\n\r 'x";
  for (int trial = 0; trial < 200; ++trial) {
    std::string raw;
    const size_t len = rng.NextInt(0, 24);
    for (size_t i = 0; i < len; ++i) {
      raw.push_back(alphabet[rng.NextInt(0, sizeof(alphabet) - 2)]);
    }
    EXPECT_EQ(UnescapeField(EscapeField(raw)), raw) << "raw: " << raw;
  }
}

TEST(ProtocolTest, FormatRowEscapesAndMarksNulls) {
  engine::Row row = {engine::Value::Str("tab\there"), engine::Value::Null(),
                     engine::Value::Int(42)};
  EXPECT_EQ(FormatRow(row), "tab\\there\tNULL\t42");
}

TEST(ProtocolTest, FormatHeaderListsColumnNames) {
  engine::Table table(engine::Schema({
      engine::Column{"x", engine::DataType::kDouble, ""},
      engine::Column{"label", engine::DataType::kString, ""},
  }));
  EXPECT_EQ(FormatHeader(table), "x\tlabel");
}

TEST(ProtocolTest, StatusCodeTokensRoundTrip) {
  const Status::Code codes[] = {
      Status::Code::kOk,          Status::Code::kInvalidArgument,
      Status::Code::kNotFound,    Status::Code::kParseError,
      Status::Code::kBindError,   Status::Code::kNotSupported,
      Status::Code::kInternal,    Status::Code::kResourceExhausted,
      Status::Code::kDeadlineExceeded, Status::Code::kCancelled,
      Status::Code::kIoError,
  };
  for (Status::Code code : codes) {
    EXPECT_EQ(ParseStatusCodeToken(StatusCodeToken(code)), code);
  }
  EXPECT_EQ(ParseStatusCodeToken("some_future_code"),
            Status::Code::kInternal);
}

engine::DeltaBatch SampleBatch() {
  engine::DeltaBatch batch;
  batch.query = "hot\tspots";
  batch.window_start = -5.0;
  batch.window_end = 0.1;
  batch.deltas = {{"group_formed", 0, 0},
                  {"groups_merged", 9007199254740993, 2},
                  {"window_closed", -1, 1}};
  return batch;
}

// The exact bytes subscribers receive: the query escaped, the bounds in
// %.17g, the integers in decimal, one line per delta.
TEST(ProtocolTest, EventLinesPinTheWireFormat) {
  EXPECT_EQ(FormatEventLines(SampleBatch()),
            "EVENT hot\\tspots\t-5\t0.10000000000000001\tgroup_formed\t0\t0\n"
            "EVENT hot\\tspots\t-5\t0.10000000000000001\tgroups_merged\t"
            "9007199254740993\t2\n"
            "EVENT hot\\tspots\t-5\t0.10000000000000001\twindow_closed\t-1\t1\n");
  engine::DeltaBatch empty;
  empty.query = "q";
  EXPECT_EQ(FormatEventLines(empty), "");
}

TEST(ProtocolTest, EventLinesRoundTripThroughTheParser) {
  const engine::DeltaBatch batch = SampleBatch();
  const std::string lines = FormatEventLines(batch);
  size_t start = 0;
  for (const engine::GroupDelta& delta : batch.deltas) {
    const size_t end = lines.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    auto event = ParseEventLine(lines.substr(start, end - start));
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    EXPECT_EQ(event.value().query, batch.query);
    EXPECT_EQ(event.value().window_start, batch.window_start);
    EXPECT_EQ(event.value().window_end, batch.window_end);
    EXPECT_EQ(event.value().kind, delta.kind);
    EXPECT_EQ(event.value().point, delta.point);
    EXPECT_EQ(event.value().groups, delta.groups);
    start = end + 1;
  }
  EXPECT_EQ(start, lines.size());
}

TEST(ProtocolTest, MalformedEventLinesAreIoErrors) {
  const std::string cases[] = {
      "EVENT q\t0\t10\tgroup_formed\t3",           // five fields
      "EVENT q\t0\t10\tgroup_formed\t3\t0\t7",     // seven fields
      "EVENT q\tzero\t10\tgroup_formed\t3\t0",      // bad start
      "EVENT q\t0\t10x\tgroup_formed\t3\t0",        // trailing junk
      "EVENT q\t0\t10\tgroup_formed\t3.5\t0",       // fractional point
      "EVENT q\t0\t10\tgroup_formed\t3\t",          // empty count
      "EVENT q\t0\t10\tgroup_formed\t3\t99999999999999999999",  // range
      "EVNT q\t0\t10\tgroup_formed\t3\t0",          // wrong verb
  };
  for (const std::string& line : cases) {
    SCOPED_TRACE(line);
    auto event = ParseEventLine(line);
    ASSERT_FALSE(event.ok());
    EXPECT_EQ(event.status().code(), Status::Code::kIoError);
    EXPECT_EQ(event.status().message(), "malformed EVENT line: " + line);
  }
}

}  // namespace
}  // namespace sgb::server
