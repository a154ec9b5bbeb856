// Unit tests: the no-overwrite heap access method.

#include <gtest/gtest.h>

#include "src/catalog/database.h"
#include "src/storage/page.h"
#include "src/util/bytes.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

class HeapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db_->catalog().CreateTable(
        *txn, "t", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}},
        kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  Result<TxnId> Begin() { return db_->Begin(); }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  TableInfo* table_ = nullptr;
};

TEST_F(HeapTest, InsertAssignsMonotonicTids) {
  auto txn = Begin();
  Tid prev{0, 0};
  for (int i = 0; i < 10; ++i) {
    auto tid = table_->heap->Insert(*txn, {Value::Int4(i), Value::Text("x")});
    ASSERT_TRUE(tid.ok());
    if (i > 0) {
      EXPECT_GT(*tid, prev);
    }
    prev = *tid;
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(HeapTest, DeleteMarksNotRemoves) {
  auto t1 = Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(1), Value::Text("doomed")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());

  auto t2 = Begin();
  ASSERT_TRUE(table_->heap->Delete(*t2, *tid).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());

  // Invisible to current snapshots...
  auto t3 = Begin();
  auto row = FetchRow(*table_->heap, db_->SnapshotFor(*t3), *tid);
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->has_value());
  ASSERT_TRUE(db_->Commit(*t3).ok());
  // ...but physically still there with its original contents (no-overwrite).
  std::optional<Row> stored;
  TupleMeta meta;
  auto any = table_->heap->VisitStored(*tid, [&](std::span<const std::byte> tuple) -> Status {
    meta = GetTupleMeta(tuple);
    INV_ASSIGN_OR_RETURN(stored, DecodeTuple(table_->schema, tuple));
    return Status::Ok();
  });
  ASSERT_TRUE(any.ok());
  ASSERT_TRUE(*any);
  EXPECT_EQ((*stored)[1].AsText(), "doomed");
  EXPECT_NE(meta.xmax, kInvalidTxn);
}

TEST_F(HeapTest, ReplaceKeepsOldVersionForHistory) {
  auto t1 = Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(1), Value::Text("v1")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  const Timestamp before = db_->Now();

  auto t2 = Begin();
  auto new_tid = table_->heap->Replace(*t2, *tid, {Value::Int4(1), Value::Text("v2")});
  ASSERT_TRUE(new_tid.ok());
  EXPECT_NE(*new_tid, *tid);
  ASSERT_TRUE(db_->Commit(*t2).ok());

  auto old_row = FetchRow(*table_->heap, db_->SnapshotAt(before), *tid);
  ASSERT_TRUE(old_row.ok());
  ASSERT_TRUE(old_row->has_value());
  EXPECT_EQ((**old_row)[1].AsText(), "v1");
}

TEST_F(HeapTest, WriteWriteConflictDetected) {
  auto t1 = Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(1), Value::Text("x")});
  ASSERT_TRUE(db_->Commit(*t1).ok());

  auto t2 = Begin();
  auto t3 = Begin();
  ASSERT_TRUE(table_->heap->Delete(*t2, *tid).ok());
  // Without acquiring locks (the lock manager would normally prevent this),
  // a second deleter of the same version must be refused.
  Status s = table_->heap->Delete(*t3, *tid);
  EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(db_->Abort(*t2).ok());
  // After the first deleter aborts, the second may claim it.
  EXPECT_TRUE(table_->heap->Delete(*t3, *tid).ok());
  ASSERT_TRUE(db_->Commit(*t3).ok());
}

TEST_F(HeapTest, ScanSkipsInvisibleVersions) {
  auto t1 = Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table_->heap->Insert(*t1, {Value::Int4(i), Value::Text("a")}).ok());
  }
  ASSERT_TRUE(db_->Commit(*t1).ok());
  // Delete the even rows.
  auto t2 = Begin();
  auto rows = HeapRows(*table_->heap, db_->SnapshotFor(*t2));
  ASSERT_TRUE(rows.ok());
  for (const HeapRow& r : *rows) {
    if (r.row[0].AsInt4() % 2 == 0) {
      ASSERT_TRUE(table_->heap->Delete(*t2, r.tid).ok());
    }
  }
  ASSERT_TRUE(db_->Commit(*t2).ok());
  // One insert aborted, one still in progress.
  auto aborted = Begin();
  ASSERT_TRUE(table_->heap->Insert(*aborted, {Value::Int4(100), Value::Text("x")}).ok());
  ASSERT_TRUE(db_->Abort(*aborted).ok());
  auto open = Begin();
  ASSERT_TRUE(table_->heap->Insert(*open, {Value::Int4(101), Value::Text("y")}).ok());

  auto t3 = Begin();
  auto vis = HeapRows(*table_->heap, db_->SnapshotFor(*t3));
  ASSERT_TRUE(vis.ok());
  for (const HeapRow& r : *vis) {
    EXPECT_EQ(r.row[0].AsInt4() % 2, 1);
  }
  auto raw = HeapRows(*table_->heap);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(vis->size(), 10u);
  EXPECT_EQ(raw->size(), 22u) << "no-overwrite: all versions physically present";
  int deleted = 0, by_aborted = 0, by_open = 0;
  for (const HeapRow& r : *raw) {
    deleted += r.meta.xmax == *t2;
    by_aborted += r.meta.xmin == *aborted;
    by_open += r.meta.xmin == *open;
  }
  EXPECT_EQ(deleted, 10);
  EXPECT_EQ(by_aborted, 1);
  EXPECT_EQ(by_open, 1);
  ASSERT_TRUE(db_->Commit(*t3).ok());
  ASSERT_TRUE(db_->Commit(*open).ok());
}

TEST_F(HeapTest, MultiPageHeapScansCompletely) {
  auto txn = Begin();
  const std::string big(2000, 'q');
  for (int i = 0; i < 50; ++i) {  // ~4 tuples/page -> ~13 pages
    ASSERT_TRUE(table_->heap->Insert(*txn, {Value::Int4(i), Value::Text(big)}).ok());
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_GT(*table_->heap->NumBlocks(), 5u);
  auto reader = Begin();
  auto rows = HeapRows(*table_->heap, db_->SnapshotFor(*reader));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
  ASSERT_TRUE(db_->Commit(*reader).ok());
}

// Insert encodes each row straight into its page slot: the pages come out
// byte-identical to pages built by copying EncodeTuple's bytes in with
// AddTuple, row by row, over several pages and varied row sizes.
TEST_F(HeapTest, InsertEncodesInPlaceLikeEncodeThenCopy) {
  auto txn = Begin();
  std::vector<std::pair<Tid, Row>> rows;
  for (int i = 0; i < 40; ++i) {
    Row row{Value::Int4(i),
            Value::Text(std::string(37 * i % 1900, static_cast<char>('a' + i % 26)))};
    if (i % 7 == 3) {
      row[1] = Value::Null();
    }
    auto tid = table_->heap->Insert(*txn, row, /*row_oid=*/1000 + i);
    ASSERT_TRUE(tid.ok());
    rows.emplace_back(*tid, std::move(row));
  }
  const uint32_t nblocks = *table_->heap->NumBlocks();
  ASSERT_GT(nblocks, 3u);
  for (uint32_t block = 0; block < nblocks; ++block) {
    std::vector<std::byte> frame(kPageSize);
    Page want(frame.data());
    want.Init(table_->oid, block);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].first.block == block) {
        auto encoded = EncodeTuple(table_->schema, rows[i].second,
                                   TupleMeta{static_cast<Oid>(1000 + i), *txn, kInvalidTxn});
        ASSERT_TRUE(encoded.ok());
        auto slot = want.AddTuple(*encoded);
        ASSERT_TRUE(slot.ok());
        EXPECT_EQ(*slot, rows[i].first.slot);
      }
    }
    auto ref = db_->buffers().Pin(table_->oid, block);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(std::equal(frame.begin(), frame.end(), ref->data())) << "block " << block;
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
}

TEST_F(HeapTest, OversizedTupleRejected) {
  auto txn = Begin();
  const std::string too_big(kPageSize, 'x');
  auto tid = table_->heap->Insert(*txn, {Value::Int4(1), Value::Text(too_big)});
  EXPECT_FALSE(tid.ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
}

TEST_F(HeapTest, ExpungeAndCompactReclaimPhysically) {
  auto t1 = Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(1), Value::Text("bye")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  ASSERT_TRUE(table_->heap->Expunge({*tid}).ok());
  auto seen = table_->heap->VisitStored(*tid, [](std::span<const std::byte>) {
    ADD_FAILURE() << "visitor ran on an expunged version";
    return Status::Ok();
  });
  ASSERT_TRUE(seen.ok());
  EXPECT_FALSE(*seen);
  auto raw = HeapRows(*table_->heap);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->empty());
}

TEST_F(HeapTest, VisitSeesTheVisibleVersionInPlace) {
  auto t1 = Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(77), Value::Text("payload")});
  ASSERT_TRUE(tid.ok());
  std::vector<ColumnView> cols(2);
  auto seen = table_->heap->Visit(db_->SnapshotFor(*t1), *tid,
                                  [&](std::span<const std::byte> tuple) {
                                    return ViewColumns(table_->heap->schema(), tuple, cols);
                                  });
  ASSERT_TRUE(seen.ok());
  EXPECT_TRUE(*seen);
  EXPECT_EQ(cols[0].Int4(), 77);
  EXPECT_EQ(cols[1].bytes.size(), 7u);

  // Uncommitted: another transaction's snapshot does not see it, and the
  // visitor never runs.
  auto t2 = Begin();
  bool called = false;
  auto unseen = table_->heap->Visit(db_->SnapshotFor(*t2), *tid,
                                    [&](std::span<const std::byte>) {
                                      called = true;
                                      return Status::Ok();
                                    });
  ASSERT_TRUE(unseen.ok());
  EXPECT_FALSE(*unseen);
  EXPECT_FALSE(called);

  // A dangling TID (past the last slot or the last block) is invisible.
  for (Tid dangling : {Tid{tid->block, 500}, Tid{tid->block + 9, 0}}) {
    auto gone = table_->heap->Visit(db_->SnapshotFor(*t1), dangling,
                                    [](std::span<const std::byte>) { return Status::Ok(); });
    ASSERT_TRUE(gone.ok()) << gone.status().ToString();
    EXPECT_FALSE(*gone);
  }
  // The visitor's error comes back as the result.
  auto failed = table_->heap->Visit(db_->SnapshotFor(*t1), *tid,
                                    [](std::span<const std::byte>) {
                                      return Status::Corruption("visitor says no");
                                    });
  EXPECT_EQ(failed.status().code(), ErrorCode::kCorruption);
  ASSERT_TRUE(db_->Commit(*t1).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
}

TEST_F(HeapTest, VisitEachStopsWhereTheVisitorSays) {
  auto txn = Begin();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table_->heap->Insert(*txn, {Value::Int4(i), Value::Text("r")}).ok());
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto reader = Begin();
  std::vector<int32_t> seen;
  Status st = table_->heap->VisitEach(
      db_->SnapshotFor(*reader), [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
        std::vector<ColumnView> cols(2);
        INV_RETURN_IF_ERROR(ViewColumns(table_->heap->schema(), tuple, cols));
        seen.push_back(cols[0].Int4());
        return cols[0].Int4() == 2;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1, 2}));
  ASSERT_TRUE(db_->Commit(*reader).ok());
}

// A crafted line pointer on a buffered heap page: past 8 KB, below the
// pointer array, or shorter than the tuple header. Every reader reports
// corruption and none reads outside the frame.
TEST_F(HeapTest, CorruptLinePointersAreRefused) {
  auto txn = Begin();
  auto tid = table_->heap->Insert(*txn, {Value::Int4(5), Value::Text("victim")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  auto ref = db_->buffers().Pin(table_->oid, tid->block);
  ASSERT_TRUE(ref.ok());
  std::byte* lp = ref->data() + kPageHeaderSize + tid->slot * kLinePointerSize;
  const uint16_t good_off = GetU16(lp);
  const uint16_t good_len = GetU16(lp + 2);
  auto reader = Begin();
  const Snapshot snap = db_->SnapshotFor(*reader);
  const std::pair<uint16_t, uint16_t> crafted[] = {
      {kPageSize - 8, 64}, {kPageHeaderSize, 20}, {good_off, 5}};
  for (auto [off, len] : crafted) {
    {
      WriterMutexLock latch(ref->Latch());
      PutU16(lp, off);
      PutU16(lp + 2, len);
    }
    auto visit = table_->heap->Visit(snap, *tid, [](std::span<const std::byte>) {
      ADD_FAILURE() << "visitor ran on a corrupt tuple";
      return Status::Ok();
    });
    EXPECT_EQ(visit.status().code(), ErrorCode::kCorruption) << off << "+" << len;
    EXPECT_EQ(FetchRow(*table_->heap, snap, *tid).status().code(), ErrorCode::kCorruption);
    auto each = [](Tid, std::span<const std::byte>) -> Result<bool> {
      ADD_FAILURE() << "visitor ran on a corrupt tuple";
      return false;
    };
    EXPECT_EQ(table_->heap->VisitEach(snap, each).code(), ErrorCode::kCorruption);
    // The every-version readers apply the same slot rule.
    auto stored = table_->heap->VisitStored(*tid, [](std::span<const std::byte>) {
      ADD_FAILURE() << "visitor ran on a corrupt tuple";
      return Status::Ok();
    });
    EXPECT_EQ(stored.status().code(), ErrorCode::kCorruption);
    EXPECT_EQ(table_->heap->VisitEachStored(each).code(), ErrorCode::kCorruption);
  }
  {
    WriterMutexLock latch(ref->Latch());
    PutU16(lp, good_off);
    PutU16(lp + 2, good_len);
  }
  auto row = FetchRow(*table_->heap, snap, *tid);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsText(), "victim");
  ASSERT_TRUE(db_->Commit(*reader).ok());
}

}  // namespace
}  // namespace invfs
