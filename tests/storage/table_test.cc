#include "storage/table.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace netmark::storage {
namespace {

TableSchema PeopleSchema() {
  return TableSchema("people", {
                                   ColumnSchema{"id", ValueType::kInt64, false},
                                   ColumnSchema{"name", ValueType::kString, false},
                                   ColumnSchema{"age", ValueType::kInt64, true},
                               });
}

Row Person(int64_t id, const std::string& name, int64_t age) {
  return {Value::Int(id), Value::Str(name), Value::Int(age)};
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("tabletest");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    auto table = Table::Open(PeopleSchema(), (dir_->path() / "people.heap").string());
    ASSERT_TRUE(table.ok());
    table_ = std::move(*table);
  }
  // What a plain Database commit does to the table: publish the writer's
  // pages, then apply the index removals no reader can need any more.
  void Commit() {
    ++epoch_;
    table_->mutable_pager()->Publish(epoch_);
    table_->SealPendingRemovals(epoch_);
    table_->ApplyPendingRemovals(epoch_);
  }
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Table> table_;
  Epoch epoch_ = 0;
};

TEST_F(TableTest, InsertGetRoundTrip) {
  auto id = table_->Insert(Person(1, "ada", 36));
  ASSERT_TRUE(id.ok());
  Commit();
  auto row = table_->Get(*id);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsStr(), "ada");
  EXPECT_EQ(table_->row_count(), 1u);
}

TEST_F(TableTest, InsertRejectsSchemaViolations) {
  EXPECT_TRUE(table_->Insert({Value::Int(1)}).status().IsInvalidArgument());
  EXPECT_TRUE(table_->Insert({Value::Int(1), Value::Null(), Value::Null()})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      table_->Insert({Value::Str("x"), Value::Str("y"), Value::Null()})
          .status()
          .IsInvalidArgument());
}

TEST_F(TableTest, IndexMaintainedAcrossMutations) {
  ASSERT_TRUE(table_->CreateIndex("by_name", {"name"}).ok());
  auto a = table_->Insert(Person(1, "ada", 36));
  auto b = table_->Insert(Person(2, "bob", 50));
  ASSERT_TRUE(a.ok() && b.ok());
  Commit();

  auto hits = table_->IndexLookup("by_name", {Value::Str("ada")});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], *a);

  // Update moves the index entry.
  ASSERT_TRUE(table_->Update(*a, Person(1, "ada lovelace", 36)).ok());
  Commit();
  EXPECT_TRUE(table_->IndexLookup("by_name", {Value::Str("ada")})->empty());
  EXPECT_EQ(table_->IndexLookup("by_name", {Value::Str("ada lovelace")})->size(), 1u);

  // Delete removes it.
  ASSERT_TRUE(table_->Delete(*b).ok());
  Commit();
  EXPECT_TRUE(table_->IndexLookup("by_name", {Value::Str("bob")})->empty());
  EXPECT_EQ(table_->row_count(), 1u);
}

TEST_F(TableTest, CreateIndexBackfillsExistingRows) {
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(table_->Insert(Person(i, "p" + std::to_string(i), i * 2)).ok());
  }
  ASSERT_TRUE(table_->CreateIndex("by_id", {"id"}).ok());
  Commit();
  auto hits = table_->IndexLookup("by_id", {Value::Int(13)});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  auto row = table_->Get((*hits)[0]);
  EXPECT_EQ((*row)[1].AsStr(), "p13");
}

TEST_F(TableTest, CompositeIndexRangeAndPrefix) {
  ASSERT_TRUE(table_->CreateIndex("by_age_id", {"age", "id"}).ok());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(table_->Insert(Person(i, "p", i % 3 == 0 ? 30 : 40)).ok());
  }
  Commit();
  auto thirty = table_->IndexPrefix("by_age_id", {Value::Int(30)});
  ASSERT_TRUE(thirty.ok());
  EXPECT_EQ(thirty->size(), 10u);
  // Inclusive range with composite keys: a bare {40} upper bound sorts
  // *before* every {40, id} key (shorter prefix first), so only age-30 rows
  // fall inside [{30}, {40}].
  auto range = table_->IndexRange("by_age_id", {Value::Int(30)}, {Value::Int(40)});
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 10u);
  // Extending the upper bound with a max id captures the age-40 rows too.
  auto full = table_->IndexRange("by_age_id", {Value::Int(30)},
                                 {Value::Int(40), Value::Int(INT64_MAX)});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 30u);
}

TEST_F(TableTest, DuplicateIndexRejected) {
  ASSERT_TRUE(table_->CreateIndex("ix", {"id"}).ok());
  EXPECT_TRUE(table_->CreateIndex("ix", {"name"}).IsAlreadyExists());
  EXPECT_TRUE(table_->CreateIndex("bad", {"nope"}).IsNotFound());
  EXPECT_FALSE(table_->HasIndex("bad"));
}

TEST_F(TableTest, LookupOnMissingIndexFails) {
  EXPECT_TRUE(table_->IndexLookup("nope", {Value::Int(1)}).status().IsNotFound());
}

TEST_F(TableTest, ScanVisitsAllRows) {
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table_->Insert(Person(i, "n", i)).ok());
  }
  Commit();
  int64_t sum = 0;
  ASSERT_TRUE(table_
                  ->Scan([&](RowId, const Row& row) {
                    sum += row[0].AsInt();
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(sum, 45);
}

TEST_F(TableTest, ScanErrorPropagates) {
  ASSERT_TRUE(table_->Insert(Person(1, "x", 1)).ok());
  Commit();
  Status st = table_->Scan(
      [](RowId, const Row&) { return Status::Internal("stop here"); });
  EXPECT_TRUE(st.IsInternal());
}

}  // namespace
}  // namespace netmark::storage
