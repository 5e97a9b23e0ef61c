// The CI concurrency gauntlet (docs/SERVER.md): many concurrent client
// sessions hammering one server with mixed DDL/DML/SGB/system-table
// traffic, a bit-identical divergence check against single-session replay,
// and targeted cancellation when a connection drops mid-query. This binary
// is what the server-tsan CI job runs under -fsanitize=thread.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "obs/query_log.h"
#include "server/client.h"
#include "server/server.h"

namespace sgb::server {
namespace {

std::string UniqueUnixPath(const char* tag) {
  return "/tmp/sgb_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

engine::Database PointsDb(size_t n, double extent = 10.0) {
  engine::Database db;
  auto pts = std::make_shared<engine::Table>(engine::Schema({
      engine::Column{"x", engine::DataType::kDouble, ""},
      engine::Column{"y", engine::DataType::kDouble, ""},
  }));
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        pts->Append({engine::Value::Double(rng.NextUniform(0, extent)),
                     engine::Value::Double(rng.NextUniform(0, extent))})
            .ok());
  }
  db.Register("pts", pts);
  return db;
}

TEST(HammerTest, EightClientsMixedWorkload) {
  engine::Database db = PointsDb(1500);
  ServerOptions options;
  options.tcp = true;
  options.unix_path = UniqueUnixPath("hammer_mixed");
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  auto note_failure = [&](const std::string& what, const Status& status) {
    failures.fetch_add(1);
    ADD_FAILURE() << what << ": " << status.ToString();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Half the clients arrive over TCP, half over the unix socket.
      Result<Client> connected =
          (c % 2 == 0) ? Client::ConnectLoopback(server.tcp_port())
                       : Client::ConnectUnixSocket(options.unix_path);
      if (!connected.ok()) {
        note_failure("connect", connected.status());
        return;
      }
      Client client = std::move(connected).value();
      const std::string table = "hammer_" + std::to_string(c);
      auto create = client.Query("CREATE TABLE IF NOT EXISTS " + table +
                                 " (round INT, payload TEXT)");
      if (!create.ok()) note_failure("create", create.status());
      if (!client.Prepare("own_count",
                          "SELECT count(*) FROM " + table)
               .ok()) {
        note_failure("prepare", Status::Internal("prepare failed"));
      }
      for (int round = 0; round < kRounds; ++round) {
        auto insert = client.Query(
            "INSERT INTO " + table + " VALUES (" + std::to_string(round) +
            ", 'p" + std::to_string(round) + "')");
        if (!insert.ok()) note_failure("insert", insert.status());

        // A session always sees its own committed writes.
        auto count = client.Execute("own_count");
        if (!count.ok()) {
          note_failure("own_count", count.status());
        } else if (count.value().rows[0][0] !=
                   std::to_string(round + 1)) {
          failures.fetch_add(1);
          ADD_FAILURE() << "client " << c << " round " << round
                        << ": own count " << count.value().rows[0][0];
        }

        auto sgb = client.Query(
            "SELECT count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 0.4");
        if (!sgb.ok()) note_failure("sgb", sgb.status());

        auto sys = client.Query(
            "SELECT count(*) FROM system.sessions");
        if (!sys.ok()) note_failure("system.sessions", sys.status());

        auto set = client.Query(
            "SET timeout = " + std::to_string(10000 + c));
        if (!set.ok()) note_failure("set", set.status());
      }
      if (!client.Quit().ok()) {
        note_failure("quit", Status::Internal("quit failed"));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // No statement in the entire gauntlet may have failed server-side.
  for (const auto& entry : db.query_log().Entries()) {
    EXPECT_NE(entry.status, "error") << entry.text;
  }
  // Quit() returns at BYE, a beat before the serve thread marks its
  // connection finished — give teardown a moment instead of racing it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.total_connections(), static_cast<uint64_t>(kClients));
}

// Acceptance gate: 8 concurrent clients all running the same deterministic
// query list must produce byte-identical wire rows to a single fresh
// session replaying the list afterwards.
TEST(HammerTest, ZeroDivergenceAgainstSingleSessionReplay) {
  engine::Database db = PointsDb(2000);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> kQueries = {
      "SELECT count(*) FROM pts",
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ANY L2 WITHIN 0.4",
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP ELIMINATE",
      "SELECT x, y FROM pts WHERE x < 1.0 ORDER BY x, y",
      "SELECT count(*) FROM pts WHERE x > 5.0",
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ANY L2 WITHIN 0.4 PARALLEL 4",
  };

  constexpr int kClients = 8;
  using ResultRows = std::vector<std::vector<std::string>>;
  std::vector<std::vector<ResultRows>> per_client(
      kClients, std::vector<ResultRows>(kQueries.size()));
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = Client::ConnectLoopback(server.tcp_port());
      if (!connected.ok()) {
        failures.fetch_add(1);
        return;
      }
      Client client = std::move(connected).value();
      for (size_t q = 0; q < kQueries.size(); ++q) {
        auto result = client.Query(kQueries[q]);
        if (!result.ok()) {
          failures.fetch_add(1);
          ADD_FAILURE() << "client " << c << " query " << q << ": "
                        << result.status().ToString();
          return;
        }
        per_client[c][q] = result.value().rows;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Single-session replay on a fresh connection is the ground truth.
  auto replay = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(replay.ok());
  for (size_t q = 0; q < kQueries.size(); ++q) {
    auto truth = replay.value().Query(kQueries[q]);
    ASSERT_TRUE(truth.ok()) << kQueries[q];
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(per_client[c][q], truth.value().rows)
          << "client " << c << " diverged on: " << kQueries[q];
    }
  }
}

TEST(HammerTest, DroppedConnectionCancelsOnlyItsOwnQuery) {
  // Large enough that the SGB query runs for well over a hundred
  // milliseconds, so the watchdog sees the dropped connection mid-query.
  // SGB-All (~150 ms here) rather than SGB-Any, whose grid groups these
  // points in about 15 ms.
  engine::Database db = PointsDb(60000, 40.0);
  ServerOptions options;
  options.tcp = true;
  Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string kSlowQuery =
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP JOIN-ANY";

  auto victim = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(victim.ok());
  std::thread runner([&] {
    // The response read fails once the socket is aborted; the interesting
    // assertions are server-side.
    (void)victim.value().Query(kSlowQuery);
  });

  // Wait until the statement is actually executing on some server session.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool saw_active = false;
  while (std::chrono::steady_clock::now() < deadline) {
    size_t active = 0;
    db.sessions().ForEach([&](const engine::Session& s) {
      active += s.active_queries();
    });
    if (active > 0) {
      saw_active = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_active) << "query never started";

  // Sever the connection mid-query; the watchdog should cancel it.
  victim.value().Abort();
  runner.join();

  // An unrelated session keeps working while the victim unwinds.
  auto bystander = Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(bystander.ok());
  auto ok = bystander.value().Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows[0][0], "60000");

  // The dropped statement lands in the query log as `cancelled`.
  bool logged_cancelled = false;
  const auto log_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!logged_cancelled &&
         std::chrono::steady_clock::now() < log_deadline) {
    for (const auto& entry : db.query_log().Entries()) {
      if (entry.text == kSlowQuery && entry.status == "cancelled") {
        logged_cancelled = true;
      }
    }
    if (!logged_cancelled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(logged_cancelled)
      << "no cancelled query-log entry for the dropped connection";

  // The bystander's own statements logged ok.
  bool bystander_ok = false;
  for (const auto& entry : db.query_log().Entries()) {
    if (entry.text == "SELECT count(*) FROM pts" && entry.status == "ok") {
      bystander_ok = true;
    }
  }
  EXPECT_TRUE(bystander_ok);
}

}  // namespace
}  // namespace sgb::server
