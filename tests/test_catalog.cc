// Unit tests: system catalogs, transactional DDL, reopen, migration.

#include <gtest/gtest.h>

#include "src/catalog/database.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

Schema TwoCols() { return Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}}; }

TEST(Catalog, BootstrapSeedsCatalogsAndTypes) {
  StorageEnv env;
  auto db = Database::Open(&env);
  ASSERT_TRUE(db.ok());
  for (const char* name :
       {"pg_class", "pg_attribute", "pg_type", "pg_proc", "pg_index"}) {
    EXPECT_TRUE((*db)->catalog().GetTable(name).ok()) << name;
  }
  EXPECT_TRUE((*db)->catalog().GetType("int4").ok());
  EXPECT_TRUE((*db)->catalog().GetType("bytea").ok());
  EXPECT_FALSE((*db)->catalog().GetType("nonsense").ok());
}

TEST(Catalog, CreateTableVisibleInPgClass) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(*txn, "files", TwoCols(),
                                            kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  auto reader = (*db)->Begin();
  bool found = false;
  auto rows = HeapRows(*(*db)->catalog().pg_class(), (*db)->SnapshotFor(*reader));
  ASSERT_TRUE(rows.ok());
  for (const HeapRow& r : *rows) {
    if (r.row[0].AsText() == "files") {
      found = true;
      EXPECT_EQ(r.row[1].AsOid(), (*table)->oid);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_TRUE((*db)->Commit(*reader).ok());
}

TEST(Catalog, DuplicateTableRejected) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  ASSERT_TRUE((*db)->catalog().CreateTable(*txn, "t", TwoCols(), 0).ok());
  EXPECT_EQ((*db)->catalog().CreateTable(*txn, "t", TwoCols(), 0).status().code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

TEST(Catalog, AbortedCreateLeavesNoTrace) {
  StorageEnv env;
  auto db = Database::Open(&env);
  Oid oid;
  {
    auto txn = (*db)->Begin();
    auto table = (*db)->catalog().CreateTable(*txn, "ghost", TwoCols(), 0);
    ASSERT_TRUE(table.ok());
    oid = (*table)->oid;
    ASSERT_TRUE((*db)->Abort(*txn).ok());
  }
  EXPECT_FALSE((*db)->catalog().GetTable("ghost").ok());
  EXPECT_FALSE((*db)->catalog().GetTableByOid(oid).ok());
  EXPECT_FALSE((*db)->devices().ManagerFor(oid).ok());
  // The name is reusable immediately.
  auto txn = (*db)->Begin();
  EXPECT_TRUE((*db)->catalog().CreateTable(*txn, "ghost", TwoCols(), 0).ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

TEST(Catalog, DropIsDeferredToCommit) {
  StorageEnv env;
  auto db = Database::Open(&env);
  Oid oid;
  {
    auto txn = (*db)->Begin();
    auto table = (*db)->catalog().CreateTable(*txn, "t", TwoCols(), 0);
    ASSERT_TRUE(table.ok());
    oid = (*table)->oid;
    ASSERT_TRUE((*db)->InsertRow(*txn, *table, {Value::Int4(1), Value::Text("x")}).ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE((*db)->catalog().DropTable(*txn, "t").ok());
    EXPECT_FALSE((*db)->catalog().GetTable("t").ok());
    // Physical storage is still there until commit...
    EXPECT_TRUE((*db)->devices().ManagerFor(oid).ok());
    ASSERT_TRUE((*db)->Abort(*txn).ok());
    // ...and an abort restores the name.
    EXPECT_TRUE((*db)->catalog().GetTable("t").ok());
  }
  {
    auto txn = (*db)->Begin();
    ASSERT_TRUE((*db)->catalog().DropTable(*txn, "t").ok());
    ASSERT_TRUE((*db)->Commit(*txn).ok());
    EXPECT_FALSE((*db)->catalog().GetTable("t").ok());
    EXPECT_FALSE((*db)->devices().ManagerFor(oid).ok()) << "storage destroyed";
  }
}

TEST(Catalog, ReopenRestoresTablesIndexesTypesProcs) {
  StorageEnv env;
  Oid table_oid, index_oid;
  {
    auto db = Database::Open(&env);
    auto txn = (*db)->Begin();
    auto table = (*db)->catalog().CreateTable(*txn, "persist", TwoCols(), 0);
    ASSERT_TRUE(table.ok());
    table_oid = (*table)->oid;
    auto index = (*db)->catalog().CreateIndex(*txn, *table, {0});
    ASSERT_TRUE(index.ok());
    index_oid = (*index)->oid;
    ASSERT_TRUE((*db)->catalog().DefineType(*txn, "movie").ok());
    ASSERT_TRUE((*db)
                    ->catalog()
                    .DefineFunction(*txn, "plus1", TypeId::kInt8, 1,
                                    ProcLang::kPostquel, "$1 + 1")
                    .ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*db)->InsertRow(*txn, *table, {Value::Int4(i), Value::Text("r")}).ok());
    }
    ASSERT_TRUE((*db)->Commit(*txn).ok());
  }
  {
    auto db = Database::Open(&env);
    auto table = (*db)->catalog().GetTable("persist");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->oid, table_oid);
    EXPECT_EQ((*table)->schema.num_columns(), 2u);
    ASSERT_EQ((*table)->indexes.size(), 1u);
    EXPECT_EQ((*table)->indexes[0]->oid, index_oid);
    EXPECT_EQ((*table)->indexes[0]->key_columns, std::vector<size_t>{0});
    // Index is usable after reopen.
    auto tids = (*table)->indexes[0]->btree->Lookup(EncodeInt4Key(7));
    ASSERT_TRUE(tids.ok());
    EXPECT_EQ(tids->size(), 1u);
    EXPECT_TRUE((*db)->catalog().GetType("movie").ok());
    auto proc = (*db)->catalog().GetFunction("plus1");
    ASSERT_TRUE(proc.ok());
    EXPECT_EQ((*proc)->src, "$1 + 1");
    // Fresh oids never collide with recovered ones.
    EXPECT_GT((*db)->catalog().AllocateOid(), index_oid);
  }
}

TEST(Catalog, IndexBackfillsExistingRows) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(*txn, "t", TwoCols(), 0);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->InsertRow(*txn, *table, {Value::Int4(i), Value::Text("x")}).ok());
  }
  auto index = (*db)->catalog().CreateIndex(*txn, *table, {0});
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
  EXPECT_EQ(*(*index)->btree->CountEntries(), 100u);
}

TEST(Catalog, MigrateTableMovesDataBetweenDevices) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(*txn, "mover", TwoCols(),
                                            kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*db)->InsertRow(*txn, *table, {Value::Int4(i), Value::Text("data")}).ok());
  }
  ASSERT_TRUE((*db)->Commit(*txn).ok());

  auto txn2 = (*db)->Begin();
  ASSERT_TRUE((*db)->catalog().MigrateTable(*txn2, *table, kDeviceNvram).ok());
  ASSERT_TRUE((*db)->Commit(*txn2).ok());

  EXPECT_EQ(*(*db)->devices().DeviceFor((*table)->oid), kDeviceNvram);
  auto reader = (*db)->Begin();
  auto rows = HeapRows(*(*table)->heap, (*db)->SnapshotFor(*reader));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);
  ASSERT_TRUE((*db)->Commit(*reader).ok());
}

TEST(Catalog, HistoricalNameResolution) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto t1 = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(*t1, "young", TwoCols(), 0);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*db)->Commit(*t1).ok());
  const Timestamp before_drop = (*db)->Now();
  // GetTableAt resolves names through pg_class under the snapshot.
  auto at = (*db)->catalog().GetTableAt("young", (*db)->SnapshotAt(before_drop));
  ASSERT_TRUE(at.ok());
  EXPECT_EQ((*at)->oid, (*table)->oid);
  auto too_early = (*db)->catalog().GetTableAt("young", (*db)->SnapshotAt(1));
  EXPECT_FALSE(too_early.ok());
}

TEST(Catalog, DefineDuplicateTypeOrFunctionRejected) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  ASSERT_TRUE((*db)->catalog().DefineType(*txn, "tm").ok());
  EXPECT_EQ((*db)->catalog().DefineType(*txn, "tm").status().code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE((*db)
                  ->catalog()
                  .DefineFunction(*txn, "f", TypeId::kInt4, 1, ProcLang::kPostquel, "$1")
                  .ok());
  EXPECT_FALSE((*db)
                   ->catalog()
                   .DefineFunction(*txn, "f", TypeId::kInt4, 1, ProcLang::kPostquel,
                                   "$1")
                   .ok());
  ASSERT_TRUE((*db)->Commit(*txn).ok());
}

}  // namespace
}  // namespace invfs
