#include "storage/database.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace netmark::storage {
namespace {

TableSchema DocsSchema() {
  return TableSchema("docs", {
                                 ColumnSchema{"id", ValueType::kInt64, false},
                                 ColumnSchema{"title", ValueType::kString, false},
                             });
}

TEST(DatabaseTest, CreateAndGetTable) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable(DocsSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*db)->HasTable("docs"));
  EXPECT_TRUE((*db)->GetTable("docs").ok());
  EXPECT_TRUE((*db)->GetTable("nope").status().IsNotFound());
  EXPECT_TRUE((*db)->CreateTable(DocsSchema()).status().IsAlreadyExists());
}

TEST(DatabaseTest, DdlCounterTracksCreateStatements) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ddl_statements(), 0u);
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  EXPECT_EQ((*db)->ddl_statements(), 1u);
  ASSERT_TRUE((*db)->CreateIndex("docs", "by_id", {"id"}).ok());
  EXPECT_EQ((*db)->ddl_statements(), 2u);
}

TEST(DatabaseTest, PersistsTablesRowsAndIndexesAcrossReopen) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  RowId saved;
  {
    auto db = Database::Open(dir->str());
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable(DocsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*db)->CreateIndex("docs", "by_title", {"title"}).ok());
    auto id = (*table)->Insert({Value::Int(1), Value::Str("IBPD budget")});
    ASSERT_TRUE(id.ok());
    saved = *id;
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(dir->str());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->ddl_statements(), 2u);  // counter survives
    auto table = (*db)->GetTable("docs");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->row_count(), 1u);
    auto row = (*table)->Get(saved);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[1].AsStr(), "IBPD budget");
    // Index was rebuilt at open.
    auto hits = (*table)->IndexLookup("by_title", {Value::Str("IBPD budget")});
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].id, saved);
  }
}

TEST(DatabaseTest, DropTableRemovesEverything) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  ASSERT_TRUE((*db)->DropTable("docs").ok());
  EXPECT_FALSE((*db)->HasTable("docs"));
  EXPECT_TRUE((*db)->DropTable("docs").IsNotFound());
  // Re-creating after drop works.
  EXPECT_TRUE((*db)->CreateTable(DocsSchema()).ok());
}

TEST(DatabaseTest, MultipleTablesCoexist) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  ASSERT_TRUE((*db)
                  ->CreateTable(TableSchema(
                      "other", {ColumnSchema{"x", ValueType::kString, true}}))
                  .ok());
  auto names = (*db)->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "docs");
  EXPECT_EQ(names[1], "other");
}

TEST(DatabaseTest, CommitsPublishAndReclaimSupersededVersions) {
  // A plain Database has no pinned readers: every commit publishes its
  // pages — with or without the WAL — and reclaims what they superseded, so
  // 1,000 commits to the same row leave one version per cached page.
  for (bool wal : {true, false}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    auto dir = TempDir::Make("dbtest");
    ASSERT_TRUE(dir.ok());
    StorageOptions options;
    options.wal_enabled = wal;
    options.wal_fsync = WalFsyncPolicy::kNone;
    auto db = Database::Open(dir->str(), options);
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable(DocsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*db)->CreateIndex("docs", "by_title", {"title"}).ok());
    ASSERT_TRUE((*db)->BeginTransaction().ok());
    auto id = (*table)->Insert({Value::Int(1), Value::Str("revision 0")});
    ASSERT_TRUE(id.ok());
    // Uncommitted: the latest published state has no row yet.
    EXPECT_TRUE((*table)->Get(*id).status().IsNotFound());
    ASSERT_TRUE((*db)->CommitTransaction().ok());
    ASSERT_TRUE((*table)->Get(*id).ok());

    constexpr int kCommits = 1000;
    for (int i = 1; i <= kCommits; ++i) {
      ASSERT_TRUE((*db)->BeginTransaction().ok());
      Status st = (*table)->Update(
          *id, {Value::Int(1), Value::Str("revision " + std::to_string(i))});
      ASSERT_TRUE(st.ok()) << i << ": " << st.ToString();
      ASSERT_TRUE((*db)->CommitTransaction().ok());
    }
    EXPECT_EQ((*db)->commit_epoch(), static_cast<Epoch>(kCommits + 1));
    EXPECT_LE((*db)->retained_versions(), (*table)->pager().page_count());
    EXPECT_GE((*db)->versions_reclaimed(), static_cast<uint64_t>(kCommits));
    EXPECT_EQ((*table)->pending_removals(), 0u);
    auto row = (*table)->Get(*id);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[1].AsStr(), "revision 1000");
    EXPECT_TRUE(
        (*table)->IndexLookup("by_title", {Value::Str("revision 999")})->empty());
    EXPECT_EQ(
        (*table)->IndexLookup("by_title", {Value::Str("revision 1000")})->size(), 1u);
  }
}

}  // namespace
}  // namespace netmark::storage
