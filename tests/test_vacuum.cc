// Unit tests: the vacuum cleaner / record archiver.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/query/executor.h"
#include "src/util/random.h"
#include "src/vacuum/vacuum.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

class VacuumTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    vacuum_ = std::make_unique<VacuumCleaner>(db_.get());
    auto txn = db_->Begin();
    auto table = db_->catalog().CreateTable(
        *txn, "t", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}},
        kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    auto index = db_->catalog().CreateIndex(*txn, table_, {0});
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  // Insert k=0..n-1, then delete the even ones in a second txn.
  void Populate(int n) {
    auto t1 = db_->Begin();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          db_->InsertRow(*t1, table_, {Value::Int4(i), Value::Text("v")}).ok());
    }
    ASSERT_TRUE(db_->Commit(*t1).ok());
    auto t2 = db_->Begin();
    auto rows = HeapRows(*table_->heap, db_->SnapshotFor(*t2));
    ASSERT_TRUE(rows.ok());
    for (const HeapRow& r : *rows) {
      if (r.row[0].AsInt4() % 2 == 0) {
        ASSERT_TRUE(db_->DeleteRow(*t2, table_, r.tid).ok());
      }
    }
    ASSERT_TRUE(db_->Commit(*t2).ok());
  }

  int CountVisible(const Snapshot& snap, Heap* heap) {
    auto rows = HeapRows(*heap, snap);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? static_cast<int>(rows->size()) : 0;
  }

  // Commits `v` as the next version of the k=1 row; returns the time after.
  Timestamp WriteVersion(const std::string& v) {
    auto txn = db_->Begin();
    const Row row{Value::Int4(1), Value::Text(v)};
    auto written = current_.has_value() ? db_->ReplaceRow(*txn, table_, *current_, row)
                                        : db_->InsertRow(*txn, table_, row);
    EXPECT_TRUE(written.ok()) << written.status().ToString();
    current_ = *written;
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return db_->Now();
  }

  // Vacuums "t" in a transaction of its own, committed or aborted.
  void VacuumAnd(bool commit) {
    auto txn = db_->Begin();
    ASSERT_TRUE(vacuum_->VacuumTable(*txn, table_, true).ok());
    ASSERT_TRUE(commit ? db_->Commit(*txn).ok() : db_->Abort(*txn).ok());
  }

  // Reopens the database from its stores, after a flush or a crash.
  void Reopen(bool crash) {
    if (crash) {
      db_->Crash();
    } else {
      ASSERT_TRUE(db_->FlushCaches().ok());
    }
    db_.reset();
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    vacuum_ = std::make_unique<VacuumCleaner>(db_.get());
    auto table = db_->catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    table_ = *table;
  }

  // `retrieve (x.v) from x in t[as_of]`: heap, then archive.
  std::vector<std::string> RetrieveAsOf(Timestamp as_of) {
    Executor exec(db_.get(), &registry_);
    std::string query = "retrieve (x.v) from x in t[";
    query += std::to_string(as_of);
    query += "]";
    auto txn = db_->Begin();
    auto rs = exec.ExecuteQuery(query, *txn);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(db_->Commit(*txn).ok());
    std::vector<std::string> values;
    for (const Row& row : rs.ok() ? rs->rows : std::vector<Row>{}) {
      values.push_back(row[0].AsText());
    }
    return values;
  }

  // The as-of retrieve at each `committed[i]` returns the one version
  // "v<i+1>" written then.
  void ExpectOneVersionEach(const std::vector<Timestamp>& committed) {
    static const std::vector<std::string> kValues = {"v1", "v2", "v3", "v4"};
    for (size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(RetrieveAsOf(committed[i]), std::vector<std::string>{kValues[i]});
    }
  }

  // Every version the archive physically holds.
  size_t ArchiveSize() {
    auto archive = db_->catalog().GetTableByOid(table_->archive_oid);
    EXPECT_TRUE(archive.ok());
    auto rows = HeapRows(*(*archive)->heap);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? rows->size() : 0;
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<VacuumCleaner> vacuum_;
  TableInfo* table_ = nullptr;
  FunctionRegistry registry_;
  std::optional<Tid> current_;
};

TEST_F(VacuumTest, ArchivesDeadVersions) {
  Populate(20);
  auto txn = db_->Begin();
  auto stats = vacuum_->VacuumTable(*txn, table_, /*keep_history=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(stats->scanned, 20u);
  EXPECT_EQ(stats->archived, 10u);
  EXPECT_EQ(stats->live, 10u);
  EXPECT_NE(table_->archive_oid, kInvalidOid);
  // Heap now physically holds only survivors.
  auto physical = HeapRows(*table_->heap);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->size(), 10u);
}

TEST_F(VacuumTest, HistoricalReadsSurviveVacuumViaArchive) {
  auto t1 = db_->Begin();
  auto tid = table_->heap->Insert(*t1, {Value::Int4(1), Value::Text("old")});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  const Timestamp before = db_->Now();
  auto t2 = db_->Begin();
  ASSERT_TRUE(
      db_->ReplaceRow(*t2, table_, *tid, {Value::Int4(1), Value::Text("new")}).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());

  auto vt = db_->Begin();
  ASSERT_TRUE(vacuum_->VacuumTable(*vt, table_, true).ok());
  ASSERT_TRUE(db_->Commit(*vt).ok());

  // The old version is no longer in the heap...
  EXPECT_EQ(CountVisible(db_->SnapshotAt(before), table_->heap.get()), 0);
  // ...but the archive union still shows it (as the executor would).
  auto archive = db_->catalog().GetTableByOid(table_->archive_oid);
  ASSERT_TRUE(archive.ok());
  auto found = HeapRows(*(*archive)->heap, db_->SnapshotAt(before));
  ASSERT_TRUE(found.ok());
  for (const HeapRow& r : *found) {
    EXPECT_EQ(r.row[1].AsText(), "old");
  }
  EXPECT_EQ(found->size(), 1u);
}

TEST_F(VacuumTest, AbortedVacuumKeepsEveryVersion) {
  const std::vector<std::string> values = {"v1", "v2", "v3"};
  std::vector<Timestamp> committed;
  for (const std::string& v : values) {
    committed.push_back(WriteVersion(v));
  }
  auto vt = db_->Begin();
  auto stats = vacuum_->VacuumTable(*vt, table_, true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->archived, 2u);
  ASSERT_TRUE(db_->Abort(*vt).ok());
  EXPECT_EQ(table_->archive_oid, kInvalidOid) << "the aborted archive is gone";

  // Every version as of its commit, through the index and any archive, as
  // the file system's lookups read them.
  auto expect_every_version = [&] {
    for (size_t i = 0; i < committed.size(); ++i) {
      std::string value;
      auto found = db_->VisitVersions(
          table_, table_->indexes[0], EncodeInt4Key(1), Database::KeyMatch::kExact,
          db_->SnapshotAt(committed[i]),
          [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
            INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(table_->schema, tuple));
            value = row[1].AsText();
            return true;
          });
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_TRUE(*found);
      EXPECT_EQ(value, values[i]);
    }
  };
  expect_every_version();
  Reopen(/*crash=*/false);
  expect_every_version();
}

// An aborted vacuum into an archive that already exists takes its copies
// back out: an as-of retrieve, which reads the heap and then the archive,
// finds each version once, live and after a reopen.
TEST_F(VacuumTest, AbortedVacuumIntoAnExistingArchiveLeavesOneCopy) {
  std::vector<Timestamp> committed;
  for (const char* v : {"v1", "v2", "v3"}) {
    committed.push_back(WriteVersion(v));
  }
  VacuumAnd(/*commit=*/true);
  ASSERT_EQ(ArchiveSize(), 2u);
  committed.push_back(WriteVersion("v4"));
  VacuumAnd(/*commit=*/false);
  EXPECT_EQ(ArchiveSize(), 2u);
  ExpectOneVersionEach(committed);
  Reopen(/*crash=*/false);
  ExpectOneVersionEach(committed);
}

// A crash after a vacuum's commit, before its reclaim reaches the disk,
// leaves the archived versions in the heap too. Each is retrieved once, and
// the next vacuum does not copy them into the archive again.
TEST_F(VacuumTest, CrashBeforeTheReclaimReachesDiskLeavesOneCopy) {
  std::vector<Timestamp> committed;
  for (const char* v : {"v1", "v2", "v3"}) {
    committed.push_back(WriteVersion(v));
  }
  ASSERT_TRUE(db_->FlushCaches().ok());
  VacuumAnd(/*commit=*/true);
  Reopen(/*crash=*/true);
  ASSERT_EQ(ArchiveSize(), 2u);
  auto in_heap = HeapRows(*table_->heap);
  ASSERT_TRUE(in_heap.ok());
  ASSERT_EQ(in_heap->size(), 3u) << "the reclaim reached the disk before the crash";
  ExpectOneVersionEach(committed);

  auto vt = db_->Begin();
  auto stats = vacuum_->VacuumTable(*vt, table_, true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->archived, 2u);
  ASSERT_TRUE(db_->Commit(*vt).ok());
  EXPECT_EQ(ArchiveSize(), 2u) << "the stranded versions were copied again";
  ExpectOneVersionEach(committed);
}

// In the state the last test builds, VisitVersions offers each version once,
// through the index and without it. Rows k=1 and k=2, written in one
// transaction and replaced in another, leave old versions stamped alike that
// differ in their bytes: a probe for k=1 still offers k=2's archive copy.
TEST_F(VacuumTest, VisitVersionsOffersAVersionLeftInBothOnce) {
  auto t1 = db_->Begin();
  auto a1 = db_->InsertRow(*t1, table_, {Value::Int4(1), Value::Text("a1")});
  auto a2 = db_->InsertRow(*t1, table_, {Value::Int4(2), Value::Text("a2")});
  ASSERT_TRUE(a1.ok() && a2.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  const Timestamp before = db_->Now();
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->ReplaceRow(*t2, table_, *a1, {Value::Int4(1), Value::Text("b1")}).ok());
  ASSERT_TRUE(db_->ReplaceRow(*t2, table_, *a2, {Value::Int4(2), Value::Text("b2")}).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  ASSERT_TRUE(db_->FlushCaches().ok());
  VacuumAnd(/*commit=*/true);
  Reopen(/*crash=*/true);
  ASSERT_EQ(ArchiveSize(), 2u);
  auto in_heap = HeapRows(*table_->heap);
  ASSERT_TRUE(in_heap.ok());
  ASSERT_EQ(in_heap->size(), 4u) << "the reclaim reached the disk before the crash";

  // How often each version "k=v" is offered as of `before`.
  auto offers = [&](const IndexInfo* index, int key) {
    std::map<std::string, int> seen;
    auto found = db_->VisitVersions(
        table_, index, EncodeInt4Key(key), Database::KeyMatch::kExact,
        db_->SnapshotAt(before), [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
          INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(table_->schema, tuple));
          ++seen[std::to_string(row[0].AsInt4()) + "=" + row[1].AsText()];
          return false;
        });
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    return seen;
  };
  const std::map<std::string, int> each_once = {{"1=a1", 1}, {"2=a2", 1}};
  EXPECT_EQ(offers(table_->indexes[0], 1), each_once);
  EXPECT_EQ(offers(nullptr, 0), each_once);
}

// An as-of equality on an indexed column reads through the index and the
// archive; the same range written as two inequalities reads every version.
// They agree for every key at every recorded time: before a vacuum, after
// one, and with a crash's residue in both heap and archive; and what they
// read as of a time never changes. The index is defined after some history,
// so it must hold versions deleted before it.
TEST_F(VacuumTest, AsOfIndexReadsMatchScans) {
  auto run = [&](const std::string& text) {
    Executor exec(db_.get(), &registry_);
    auto txn = db_->Begin();
    auto rs = exec.ExecuteQuery(text, *txn);
    EXPECT_TRUE(rs.ok()) << text << " -> " << rs.status().ToString();
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return rs.ok() ? *rs : ResultSet{};
  };
  constexpr int kKeys = 5;
  Rng rng(29);
  std::vector<Timestamp> times;
  auto write_history = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::string k = std::to_string(rng.Uniform(kKeys));
      const std::string v = std::to_string(rng.Uniform(1000));
      switch (rng.Uniform(3)) {
        case 0:
          run("append h (k = " + k + ", v = " + v + ")");
          break;
        case 1:
          run("replace h (v = " + v + ") where h.k = " + k);
          break;
        default:
          run("delete h where h.k = " + k);
          break;
      }
      times.push_back(db_->Now());
    }
  };
  // The sorted rows of `retrieve (x.k, x.v) from x in h[ts] where <where>`.
  auto rows = [&](Timestamp ts, const std::string& where) {
    const ResultSet rs = run("retrieve (x.k, x.v) from x in h[" + std::to_string(ts) +
                             "] where " + where);
    std::vector<std::string> out;
    for (const Row& row : rs.rows) {
      out.push_back(row[0].ToString() + "," + row[1].ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  Counter* scanned = db_->metrics().GetCounter("query.tuples_scanned");
  uint64_t by_index = 0;
  uint64_t by_scan = 0;
  std::map<std::pair<Timestamp, int>, std::vector<std::string>> first_read;
  auto compare = [&](const char* state) {
    for (const Timestamp ts : times) {
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = std::to_string(k);
        uint64_t at = scanned->Value();
        const auto indexed = rows(ts, "x.k = " + key);
        by_index += scanned->Value() - at;
        at = scanned->Value();
        const auto all = rows(ts, "x.k >= " + key + " and x.k <= " + key);
        by_scan += scanned->Value() - at;
        EXPECT_EQ(indexed, all) << state << ", as of " << ts << ", k = " << k;
        const auto read = first_read.try_emplace({ts, k}, all).first;
        EXPECT_EQ(all, read->second) << state << ", as of " << ts << ", k = " << k;
      }
    }
  };

  run("create h (k = int4, v = int4)");
  write_history(12);
  run("define index on h (k)");
  write_history(24);
  compare("before vacuum");
  EXPECT_LT(by_index, by_scan) << "as-of equalities read through the index";

  auto vacuum_h = [&] {
    auto h = db_->catalog().GetTable("h");
    ASSERT_TRUE(h.ok());
    auto txn = db_->Begin();
    ASSERT_TRUE(vacuum_->VacuumTable(*txn, *h, true).ok());
    ASSERT_TRUE(db_->Commit(*txn).ok());
  };
  vacuum_h();
  compare("after vacuum");

  write_history(12);
  ASSERT_TRUE(db_->FlushCaches().ok());
  vacuum_h();
  Reopen(/*crash=*/true);
  scanned = db_->metrics().GetCounter("query.tuples_scanned");
  compare("crash residue");
}

// Two vacuums of one table in one transaction: the second finds the first
// one's copies in the archive and makes none, so the archive holds each
// version once.
TEST_F(VacuumTest, SecondVacuumInOneTransactionCopiesNothingAgain) {
  std::vector<Timestamp> committed;
  for (const char* v : {"v1", "v2", "v3"}) {
    committed.push_back(WriteVersion(v));
  }
  auto vt = db_->Begin();
  auto first = vacuum_->VacuumTable(*vt, table_, true);
  auto second = vacuum_->VacuumTable(*vt, table_, true);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->archived, 2u);
  EXPECT_EQ(second->archived, 2u);
  EXPECT_EQ(ArchiveSize(), 2u);
  ASSERT_TRUE(db_->Commit(*vt).ok());
  EXPECT_EQ(ArchiveSize(), 2u);
  EXPECT_EQ(*table_->indexes[0]->btree->CountEntries(), 1u);
  ExpectOneVersionEach(committed);
}

// A table vacuumed and then dropped in one transaction is dropped whole at
// commit; nothing is left to reclaim.
TEST_F(VacuumTest, VacuumThenDropInOneTransaction) {
  WriteVersion("v1");
  WriteVersion("v2");
  auto txn = db_->Begin();
  ASSERT_TRUE(vacuum_->VacuumTable(*txn, table_, true).ok());
  ASSERT_TRUE(db_->catalog().DropTable(*txn, "t").ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_FALSE(db_->catalog().GetTable("t").ok());
  EXPECT_FALSE(db_->catalog().GetTable("a,t").ok());
}

TEST_F(VacuumTest, NoHistoryModeDiscards) {
  Populate(10);
  auto txn = db_->Begin();
  auto stats = vacuum_->VacuumTable(*txn, table_, /*keep_history=*/false);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(stats->archived, 0u);
  EXPECT_EQ(stats->discarded, 5u);
  EXPECT_EQ(table_->archive_oid, kInvalidOid);
}

TEST_F(VacuumTest, AbortedInsertsAlwaysDiscarded) {
  auto txn = db_->Begin();
  ASSERT_TRUE(db_->InsertRow(*txn, table_, {Value::Int4(9), Value::Text("x")}).ok());
  ASSERT_TRUE(db_->Abort(*txn).ok());
  auto vt = db_->Begin();
  auto stats = vacuum_->VacuumTable(*vt, table_, true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(db_->Commit(*vt).ok());
  EXPECT_EQ(stats->discarded, 1u);
  EXPECT_EQ(stats->archived, 0u) << "aborted versions are garbage, not history";
}

TEST_F(VacuumTest, IndexRebuiltConsistently) {
  Populate(200);
  auto txn = db_->Begin();
  ASSERT_TRUE(vacuum_->VacuumTable(*txn, table_, true).ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  IndexInfo* index = table_->indexes[0];
  ASSERT_TRUE(index->btree->CheckInvariants().ok());
  EXPECT_EQ(*index->btree->CountEntries(), 100u);
  // Index points at live tuples.
  auto tids = index->btree->Lookup(EncodeInt4Key(101));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  auto reader = db_->Begin();
  auto row = FetchRow(*table_->heap, db_->SnapshotFor(*reader), (*tids)[0]);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[0].AsInt4(), 101);
  ASSERT_TRUE(db_->Commit(*reader).ok());
  // Dead keys are gone from the index.
  EXPECT_TRUE(index->btree->Lookup(EncodeInt4Key(100))->empty());
}

TEST_F(VacuumTest, InProgressVersionsLeftAlone) {
  auto writer = db_->Begin();
  ASSERT_TRUE(db_->InsertRow(*writer, table_, {Value::Int4(1), Value::Text("wip")}).ok());
  // Vacuum runs while the writer is still active (it will skip the X lock by
  // running in the same thread? no — use a different table lock path: vacuum
  // takes X and would block; so vacuum the table in the writer's transaction).
  auto stats = vacuum_->VacuumTable(*writer, table_, true);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->live, 1u);
  EXPECT_EQ(stats->discarded + stats->archived, 0u);
  ASSERT_TRUE(db_->Commit(*writer).ok());
}

TEST_F(VacuumTest, VacuumAllCoversUserTablesOnly) {
  Populate(10);
  auto txn = db_->Begin();
  auto stats = vacuum_->VacuumAll(*txn, true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_EQ(stats->scanned, 10u) << "catalogs and indexes are not vacuumed";
}

TEST_F(VacuumTest, IdempotentSecondPass) {
  Populate(20);
  auto t1 = db_->Begin();
  ASSERT_TRUE(vacuum_->VacuumTable(*t1, table_, true).ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  auto t2 = db_->Begin();
  auto stats = vacuum_->VacuumTable(*t2, table_, true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_EQ(stats->archived, 0u);
  EXPECT_EQ(stats->discarded, 0u);
  EXPECT_EQ(stats->live, 10u);
}

}  // namespace
}  // namespace invfs
