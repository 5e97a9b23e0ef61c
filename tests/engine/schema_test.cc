#include "engine/schema.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/table.h"

namespace sgb::engine {
namespace {

Schema TwoTableSchema() {
  return Schema({Column{"id", DataType::kInt64, "a"},
                 Column{"v", DataType::kDouble, "a"},
                 Column{"id", DataType::kInt64, "b"},
                 Column{"w", DataType::kDouble, "b"}});
}

TEST(SchemaTest, QualifiedLookup) {
  const Schema s = TwoTableSchema();
  const auto a_id = s.Find("a", "id");
  EXPECT_EQ(a_id.outcome, Schema::LookupOutcome::kFound);
  EXPECT_EQ(a_id.index, 0u);
  const auto b_id = s.Find("b", "id");
  EXPECT_EQ(b_id.index, 2u);
}

TEST(SchemaTest, BareNameAmbiguity) {
  const Schema s = TwoTableSchema();
  EXPECT_EQ(s.Find("", "id").outcome, Schema::LookupOutcome::kAmbiguous);
  EXPECT_EQ(s.Find("", "v").outcome, Schema::LookupOutcome::kFound);
  EXPECT_EQ(s.Find("", "missing").outcome, Schema::LookupOutcome::kNotFound);
  EXPECT_EQ(s.Find("c", "id").outcome, Schema::LookupOutcome::kNotFound);
}

TEST(SchemaTest, ConcatAndRequalify) {
  const Schema left({Column{"x", DataType::kInt64, "l"}});
  const Schema right({Column{"y", DataType::kInt64, "r"}});
  const Schema joined = Schema::Concat(left, right);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined.column(0).qualifier, "l");
  EXPECT_EQ(joined.column(1).qualifier, "r");

  const Schema renamed = joined.WithQualifier("sub");
  EXPECT_EQ(renamed.column(0).qualifier, "sub");
  EXPECT_EQ(renamed.column(1).qualifier, "sub");
}

TEST(SchemaTest, ToStringListsQualifiedColumns) {
  const Schema s({Column{"id", DataType::kInt64, "t"},
                  Column{"v", DataType::kDouble, ""}});
  const std::string rendered = s.ToString();
  EXPECT_NE(rendered.find("t.id INT64"), std::string::npos);
  EXPECT_NE(rendered.find("v DOUBLE"), std::string::npos);
}

TEST(TableTest, AppendChecksArity) {
  Table t(Schema({Column{"x", DataType::kInt64, ""}}));
  EXPECT_TRUE(t.Append({Value::Int(1)}).ok());
  EXPECT_FALSE(t.Append({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, ToStringRendersGrid) {
  Table t(Schema({Column{"x", DataType::kInt64, ""},
                  Column{"name", DataType::kString, ""}}));
  ASSERT_TRUE(t.Append({Value::Int(1), Value::Str("alpha")}).ok());
  const std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("name"), std::string::npos);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  auto t = std::make_shared<Table>(
      Schema({Column{"x", DataType::kInt64, ""}}));
  catalog.Register("MyTable", t);
  auto found = catalog.Find("myTABLE");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->kind(), TableKind::kTable);
  EXPECT_EQ(catalog.Find("other").status().code(), Status::Code::kNotFound);
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

// One name, one entry: registering over a system or paged table is
// refused, so a lookup can never find two tables under the same name.
TEST(CatalogTest, RegisterNeverReplacesSystemOrPagedTables) {
  Database db;
  auto t = std::make_shared<Table>(Schema({Column{"x", DataType::kInt64, ""}}));
  ASSERT_TRUE(t->Append({Value::Int(1)}).ok());
  const Status status = db.Register("system.sessions", t);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
      << status.ToString();

  auto listed = db.Query(
      "SELECT kind FROM system.tables WHERE name = 'system.sessions'");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().NumRows(), 1u);
  EXPECT_EQ(listed.value().rows()[0][0].AsString(), "system");
  auto sessions = db.Query("SELECT * FROM system.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  EXPECT_GT(sessions.value().schema().size(), 1u);

  const std::string dir = ::testing::TempDir() + "/sgb_catalog_one_name";
  std::filesystem::remove_all(dir);
  auto disk = Database::Open(dir);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ASSERT_TRUE(disk.value().Query("CREATE TABLE disky (x INT)").ok());
  EXPECT_EQ(disk.value().Register("disky", t).code(),
            Status::Code::kInvalidArgument);
  EXPECT_NE(disk.value().Query("SELECT kind FROM system.tables "
                               "WHERE name = 'disky'")
                .value()
                .ToString()
                .find("paged"),
            std::string::npos);

  // Replacing a stored or append-only table still works.
  EXPECT_TRUE(db.Register("plain", t).ok());
  EXPECT_TRUE(db.Register("plain", t).ok());
  ASSERT_TRUE(db.Query("CREATE TABLE grows (x INT)").ok());
  EXPECT_TRUE(db.Register("grows", t).ok());
  EXPECT_EQ(db.catalog().FindAppendable("grows"), nullptr);
}

}  // namespace
}  // namespace sgb::engine
