// End-to-end smoke tests of the storage engine: bootstrap, DDL, DML, MVCC
// visibility, time travel, crash recovery.

#include <gtest/gtest.h>

#include "src/catalog/database.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

Schema TestSchema() {
  return Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}};
}

TEST(DatabaseSmoke, BootstrapAndReopen) {
  StorageEnv env;
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->catalog().GetTable("pg_class").ok());
  }
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->catalog().GetTable("pg_class").ok());
  }
}

TEST(DatabaseSmoke, CreateInsertScanCommit) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto txn = db.Begin();
  ASSERT_TRUE(txn.ok());
  auto table = db.catalog().CreateTable(*txn, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (int i = 0; i < 100; ++i) {
    auto tid = db.InsertRow(*txn, *table,
                            {Value::Int4(i), Value::Text("row" + std::to_string(i))});
    ASSERT_TRUE(tid.ok()) << tid.status().ToString();
  }
  ASSERT_TRUE(db.Commit(*txn).ok());

  auto txn2 = db.Begin();
  ASSERT_TRUE(txn2.ok());
  Snapshot snap = db.SnapshotFor(*txn2);
  auto rows = HeapRows(*(*table)->heap, snap);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);
  ASSERT_TRUE(db.Commit(*txn2).ok());
}

TEST(DatabaseSmoke, AbortHidesRows) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  auto table = db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.Commit(*setup).ok());

  auto txn = db.Begin();
  ASSERT_TRUE(db.InsertRow(*txn, *table, {Value::Int4(1), Value::Text("x")}).ok());
  ASSERT_TRUE(db.Abort(*txn).ok());

  auto reader = db.Begin();
  auto rows = HeapRows(*(*table)->heap, db.SnapshotFor(*reader));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  ASSERT_TRUE(db.Commit(*reader).ok());
}

TEST(DatabaseSmoke, TimeTravelSeesOldVersions) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  auto table = db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  auto tid = db.InsertRow(*setup, *table, {Value::Int4(1), Value::Text("old")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db.Commit(*setup).ok());

  const Timestamp before_update = db.Now();

  auto update = db.Begin();
  auto new_tid =
      db.ReplaceRow(*update, *table, *tid, {Value::Int4(1), Value::Text("new")});
  ASSERT_TRUE(new_tid.ok());
  ASSERT_TRUE(db.Commit(*update).ok());

  // Current snapshot sees "new".
  auto reader = db.Begin();
  auto now_rows = HeapRows(*(*table)->heap, db.SnapshotFor(*reader));
  ASSERT_TRUE(now_rows.ok());
  ASSERT_FALSE(now_rows->empty());
  EXPECT_EQ(now_rows->front().row[1].AsText(), "new");
  EXPECT_EQ(now_rows->size(), 1u);
  ASSERT_TRUE(db.Commit(*reader).ok());

  // Historical snapshot sees "old".
  auto old_rows = HeapRows(*(*table)->heap, db.SnapshotAt(before_update));
  ASSERT_TRUE(old_rows.ok());
  ASSERT_FALSE(old_rows->empty());
  EXPECT_EQ(old_rows->front().row[1].AsText(), "old");
  EXPECT_EQ(old_rows->size(), 1u);
}

TEST(DatabaseSmoke, CrashRecoveryRollsBackInFlight) {
  StorageEnv env;
  Oid table_oid = kInvalidOid;
  {
    auto db_or = Database::Open(&env);
    ASSERT_TRUE(db_or.ok());
    Database& db = **db_or;
    auto setup = db.Begin();
    auto table =
        db.catalog().CreateTable(*setup, "t", TestSchema(), kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    table_oid = (*table)->oid;
    ASSERT_TRUE(db.InsertRow(*setup, *table, {Value::Int4(1), Value::Text("durable")})
                    .ok());
    ASSERT_TRUE(db.Commit(*setup).ok());

    // In-flight transaction at crash time.
    auto inflight = db.Begin();
    ASSERT_TRUE(
        db.InsertRow(*inflight, *table, {Value::Int4(2), Value::Text("doomed")}).ok());
    // Force its pages out so the uncommitted tuple IS on stable storage; the
    // commit log is what must hide it.
    ASSERT_TRUE(db.buffers().FlushAll().ok());
    db.Crash();
  }
  {
    auto db_or = Database::Open(&env);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    Database& db = **db_or;
    auto table = db.catalog().GetTableByOid(table_oid);
    ASSERT_TRUE(table.ok());
    auto reader = db.Begin();
    auto rows = HeapRows(*(*table)->heap, db.SnapshotFor(*reader));
    ASSERT_TRUE(rows.ok());
    ASSERT_FALSE(rows->empty());
    EXPECT_EQ(rows->front().row[1].AsText(), "durable");
    EXPECT_EQ(rows->size(), 1u) << "uncommitted tuple visible after crash";
    ASSERT_TRUE(db.Commit(*reader).ok());
  }
}

TEST(DatabaseSmoke, IndexLookupFindsRows) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto txn = db.Begin();
  auto table = db.catalog().CreateTable(*txn, "t", TestSchema(), kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  auto index = db.catalog().CreateIndex(*txn, *table, {0});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (int i = 0; i < 500; ++i) {
    std::string text = "v";
    text += std::to_string(i);
    ASSERT_TRUE(db.InsertRow(*txn, *table, {Value::Int4(i), Value::Text(text)}).ok());
  }
  ASSERT_TRUE(db.Commit(*txn).ok());

  auto tids = (*index)->btree->Lookup(EncodeInt4Key(250));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  auto reader = db.Begin();
  auto row = FetchRow(*(*table)->heap, db.SnapshotFor(*reader), (*tids)[0]);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsText(), "v250");
  ASSERT_TRUE(db.Commit(*reader).ok());
  ASSERT_TRUE((*index)->btree->CheckInvariants().ok());
}

}  // namespace
}  // namespace invfs
