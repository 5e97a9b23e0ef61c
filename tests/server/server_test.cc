// End-to-end tests for the multi-session server front end over both
// transports (docs/SERVER.md): the command surface, DDL/DML through the
// wire, prepared statements, error replies, the session limit, and clean
// shutdown.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "server/client.h"
#include "server/server.h"

namespace sgb::server {
namespace {

std::string UniqueUnixPath(const char* tag) {
  return "/tmp/sgb_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

engine::Database PointsDb(size_t n) {
  engine::Database db;
  auto pts = std::make_shared<engine::Table>(engine::Schema({
      engine::Column{"x", engine::DataType::kDouble, ""},
      engine::Column{"y", engine::DataType::kDouble, ""},
  }));
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(pts->Append({engine::Value::Double(rng.NextUniform(0, 10)),
                             engine::Value::Double(rng.NextUniform(0, 10))})
                    .ok());
  }
  db.Register("pts", pts);
  return db;
}

TEST(ServerTest, StartRequiresAListener) {
  engine::Database db;
  Server server(&db, ServerOptions{});
  EXPECT_EQ(server.Start().code(), Status::Code::kInvalidArgument);
}

TEST(ServerTest, PingQueryQuitOverTcp) {
  engine::Database db = PointsDb(100);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);

  auto client = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());

  auto result = client.value().Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().columns.size(), 1u);
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0], "100");

  EXPECT_TRUE(client.value().Quit().ok());
  EXPECT_FALSE(client.value().connected());
}

TEST(ServerTest, QueryOverUnixSocket) {
  engine::Database db = PointsDb(50);
  ServerOptions options;
  options.unix_path = UniqueUnixPath("srv_unix");
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client.value().Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0], "50");
}

TEST(ServerTest, DdlAndDmlThroughTheWire) {
  engine::Database db;
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto writer = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE TABLE visits (who TEXT, n INT)")
                  .ok());
  ASSERT_TRUE(writer.value()
                  .Query("INSERT INTO visits VALUES ('ada', 3), ('bob', 1)")
                  .ok());

  // A different session reads the committed rows through its own snapshot.
  auto reader = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(reader.ok());
  auto result = reader.value().Query(
      "SELECT who, n FROM visits ORDER BY who");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0], "ada");
  EXPECT_EQ(result.value().rows[0][1], "3");
  EXPECT_EQ(result.value().rows[1][0], "bob");

  ASSERT_TRUE(writer.value().Query("DROP TABLE visits").ok());
  auto gone = reader.value().Query("SELECT count(*) FROM visits");
  EXPECT_FALSE(gone.ok());
}

TEST(ServerTest, PreparedStatementsAreSessionScoped) {
  engine::Database db = PointsDb(40);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto c1 = Client::ConnectLoopback(server.tcp_port());
  auto c2 = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  ASSERT_TRUE(c1.value().Prepare("cnt", "SELECT count(*) FROM pts").ok());
  for (int i = 0; i < 3; ++i) {
    auto result = c1.value().Execute("cnt");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().rows[0][0], "40");
  }

  // The name is bound on c1's session only.
  auto other = c2.value().Execute("cnt");
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), Status::Code::kNotFound);

  // PREPARE validates: garbage SQL and non-SELECT statements are rejected.
  EXPECT_FALSE(c1.value().Prepare("bad", "SELEKT frm").ok());
  EXPECT_FALSE(c1.value().Prepare("ddl", "DROP TABLE pts").ok());
}

TEST(ServerTest, ErrorsKeepTheSessionServing) {
  engine::Database db = PointsDb(10);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(client.ok());

  auto bad_sql = client.value().Query("SELECT FROM nothing WHERE");
  ASSERT_FALSE(bad_sql.ok());

  auto missing = client.value().Query("SELECT count(*) FROM no_such_table");
  ASSERT_FALSE(missing.ok());

  // The same connection still serves after both errors.
  auto ok = client.value().Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows[0][0], "10");
}

TEST(ServerTest, SessionLimitShedsWithParseableError) {
  engine::Database db = PointsDb(10);
  ServerOptions options;
  options.tcp = true;
  options.max_sessions = 1;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().Ping().ok());  // ensure the slot is taken

  auto second = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(second.ok());
  auto shed = second.value().Query("SELECT count(*) FROM pts");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), Status::Code::kResourceExhausted);

  // The admitted session is unaffected.
  EXPECT_TRUE(first.value().Query("SELECT count(*) FROM pts").ok());
}

TEST(ServerTest, SessionsAppearInSystemSessions) {
  engine::Database db = PointsDb(10);
  ServerOptions options;
  options.tcp = true;
  options.unix_path = UniqueUnixPath("srv_sys");
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto tcp_client = Client::ConnectLoopback(server.tcp_port());
  auto unix_client = Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(tcp_client.ok());
  ASSERT_TRUE(unix_client.ok());
  ASSERT_TRUE(tcp_client.value().Ping().ok());
  ASSERT_TRUE(unix_client.value().Ping().ok());

  EXPECT_EQ(server.active_connections(), 2u);
  EXPECT_EQ(server.total_connections(), 2u);

  auto sessions = unix_client.value().Query(
      "SELECT peer FROM system.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  size_t tcp_peers = 0;
  size_t unix_peers = 0;
  for (const auto& row : sessions.value().rows) {
    if (row[0].rfind("tcp:", 0) == 0) ++tcp_peers;
    if (row[0].rfind("unix:", 0) == 0) ++unix_peers;
  }
  EXPECT_EQ(tcp_peers, 1u);
  EXPECT_EQ(unix_peers, 1u);
}

TEST(ServerTest, StopLeavesTheDatabaseUsable) {
  engine::Database db = PointsDb(25);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Ping().ok());

  server.Stop();
  EXPECT_EQ(server.active_connections(), 0u);

  // The severed client fails cleanly; the embedded Database is untouched.
  EXPECT_FALSE(client.value().Query("SELECT count(*) FROM pts").ok());
  auto direct = db.Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().rows()[0][0].AsInt(), 25);
}

TEST(ServerTest, ReapingSurvivesConnectionChurn) {
  // Every accept reaps finished connections while their threads may still
  // be on their way out (a finishing thread reads the connection count
  // after marking itself done). Several clients connecting and hanging up
  // back to back keep accepts and exits overlapping; a reaper that joins
  // under the connection lock deadlocks here.
  engine::Database db = PointsDb(10);
  ServerOptions options;
  options.unix_path = UniqueUnixPath("srv_churn");
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRounds = 150;
  std::atomic<int> failures{0};
  auto churn = std::async(std::launch::async, [&] {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < kRounds; ++i) {
          auto client = Client::ConnectUnixSocket(options.unix_path);
          if (!client.ok() || !client.value().Ping().ok()) {
            failures.fetch_add(1);
          }
          // The client closes its socket here; the server thread exits.
        }
      });
    }
    for (auto& t : clients) t.join();
  });
  if (churn.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // A deadlocked server never lets the clients finish; fail loudly
    // instead of hanging until ctest's timeout.
    ADD_FAILURE() << "connection churn did not finish: reaper deadlock";
    std::abort();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.total_connections(),
            static_cast<uint64_t>(kClients * kRounds));
  server.Stop();
  EXPECT_EQ(server.active_connections(), 0u);
}

}  // namespace
}  // namespace sgb::server
