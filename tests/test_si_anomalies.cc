// Serialization-anomaly suite for snapshot-isolation reads.
//
// Read-only transactions (and reads in a mixed transaction before its first
// write) run on a pinned MVCC snapshot and never touch the LockManager;
// writers keep strict 2PL among themselves. This file pins down exactly what
// that isolation level does and does not promise:
//
//   - read skew:   PREVENTED  (pinned snapshot is transaction-consistent)
//   - lost update: PREVENTED  (writers still serialize via exclusive locks)
//   - write skew:  PERMITTED  (documented below; the classic SI anomaly)
//
// plus the lock-freedom evidence the tentpole demands: zero lock.acquisitions
// delta and no "lock.wait" spans across read-only filesystem operations,
// including historical (time-travel) opens.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "src/inversion/inv_fs.h"
#include "src/obs/span.h"
#include "src/vacuum/vacuum.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

class SiAnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto s1 = fs_->NewSession();
    auto s2 = fs_->NewSession();
    ASSERT_TRUE(s1.ok() && s2.ok());
    writer_ = std::move(*s1);
    reader_ = std::move(*s2);
  }

  // A two-row "accounts" table for the textbook anomaly shapes.
  void MakeAccounts() {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db_->catalog().CreateTable(
        *txn, "acct", Schema{{"id", TypeId::kInt4}, {"bal", TypeId::kInt4}},
        kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    acct_ = *table;
    auto a = db_->InsertRow(*txn, acct_, {Value::Int4(1), Value::Int4(100)});
    auto b = db_->InsertRow(*txn, acct_, {Value::Int4(2), Value::Int4(100)});
    ASSERT_TRUE(a.ok() && b.ok());
    tid_a_ = *a;
    tid_b_ = *b;
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }

  // Sum of `bal` over all rows visible to `snap`.
  int SumBalances(const Snapshot& snap) {
    auto rows = HeapRows(*acct_->heap, snap);
    EXPECT_TRUE(rows.ok());
    int sum = 0;
    for (const HeapRow& r : rows.ok() ? *rows : std::vector<HeapRow>{}) {
      sum += r.row[1].AsInt4();
    }
    return sum;
  }

  int CountRows(TableInfo* table, const Snapshot& snap) {
    auto rows = HeapRows(*table->heap, snap);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? static_cast<int>(rows->size()) : 0;
  }

  void WriteFile(InvSession* s, const std::string& path, const std::string& data) {
    ASSERT_TRUE(s->p_begin().ok());
    auto fd = s->p_creat(path);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto n = s->p_write(*fd, std::as_bytes(std::span(data.data(), data.size())));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_TRUE(s->p_close(*fd).ok());
    ASSERT_TRUE(s->p_commit().ok());
  }

  std::string ReadFile(InvSession* s, const std::string& path,
                       Timestamp as_of = kTimestampNow) {
    auto fd = s->p_open(path, OpenMode::kRead, as_of);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) {
      return {};
    }
    std::string out;
    char buf[4096];
    for (;;) {
      auto n = s->p_read(*fd, std::as_writable_bytes(std::span(buf)));
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || *n == 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(*n));
    }
    EXPECT_TRUE(s->p_close(*fd).ok());
    return out;
  }

  uint64_t LockAcquisitions() {
    return db_->metrics().GetCounter("lock.acquisitions")->Value();
  }

  // Count "lock.wait" spans recorded after ring sequence `after_seq`.
  uint64_t LockWaitSpansSince(uint64_t after_seq) {
    uint64_t n = 0;
    for (const SpanRecord& r : db_->metrics().spans().Snapshot()) {
      if (r.seq > after_seq && r.name != nullptr &&
          std::string_view(r.name) == "lock.wait") {
        ++n;
      }
    }
    return n;
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> writer_;
  std::unique_ptr<InvSession> reader_;
  TableInfo* acct_ = nullptr;
  Tid tid_a_{};
  Tid tid_b_{};
};

// -------------------------------------------------------------- read skew
//
// Reader observes row A, a writer then moves money from A to B and commits,
// reader observes row B. Under 2PL-free live reads the reader would see the
// transfer half-applied (sum 250 or 150); the pinned snapshot keeps both
// reads at begin time, so the invariant sum==200 holds throughout.

TEST_F(SiAnomalyTest, ReadSkewPrevented) {
  MakeAccounts();

  auto reader = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(reader.ok());
  const Snapshot snap = db_->ReadSnapshot(*reader);
  auto first = FetchRow(*acct_->heap, snap, tid_a_);
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((**first)[1].AsInt4(), 100);

  // Transfer 50 from A to B, committed between the reader's two reads.
  auto xfer = db_->Begin();
  ASSERT_TRUE(xfer.ok());
  ASSERT_TRUE(
      db_->ReplaceRow(*xfer, acct_, tid_a_, {Value::Int4(1), Value::Int4(50)}).ok());
  ASSERT_TRUE(
      db_->ReplaceRow(*xfer, acct_, tid_b_, {Value::Int4(2), Value::Int4(150)}).ok());
  ASSERT_TRUE(db_->Commit(*xfer).ok());

  // The same pinned snapshot still sees the pre-transfer state — including
  // row B, read *after* the transfer committed.
  auto second = FetchRow(*acct_->heap, snap, tid_b_);
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((**second)[1].AsInt4(), 100);
  EXPECT_EQ(SumBalances(snap), 200);
  ASSERT_TRUE(db_->Commit(*reader).ok());

  // A fresh transaction sees the transfer whole: 50 + 150.
  auto after = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(SumBalances(db_->ReadSnapshot(*after)), 200);
  auto rows = HeapRows(*acct_->heap, db_->ReadSnapshot(*after));
  ASSERT_TRUE(rows.ok());
  for (const HeapRow& r : *rows) {
    const int id = r.row[0].AsInt4();
    EXPECT_EQ(r.row[1].AsInt4(), id == 1 ? 50 : 150);
  }
  EXPECT_EQ(rows->size(), 2u);
  ASSERT_TRUE(db_->Commit(*after).ok());
}

// ------------------------------------- snapshot stability under concurrent commit
//
// Commits landing mid-transaction never change what a pinned snapshot
// returns: same row count, same values, scan after scan.

TEST_F(SiAnomalyTest, SnapshotStableUnderConcurrentCommit) {
  MakeAccounts();
  auto reader = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(reader.ok());
  const Snapshot snap = db_->ReadSnapshot(*reader);
  EXPECT_EQ(CountRows(acct_, snap), 2);

  for (int i = 0; i < 5; ++i) {
    auto w = db_->Begin();
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(
        db_->InsertRow(*w, acct_, {Value::Int4(10 + i), Value::Int4(1)}).ok());
    ASSERT_TRUE(db_->Commit(*w).ok());
    // Each committed insert is invisible to the pinned snapshot...
    EXPECT_EQ(CountRows(acct_, snap), 2) << "after insert " << i;
    EXPECT_EQ(SumBalances(snap), 200);
  }
  ASSERT_TRUE(db_->Commit(*reader).ok());

  // ...and fully visible to the next transaction.
  auto after = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(CountRows(acct_, db_->ReadSnapshot(*after)), 7);
  ASSERT_TRUE(db_->Commit(*after).ok());
}

// ------------------------------------------------------------- lost update
//
// Writers still run strict 2PL against each other: concurrent
// read-modify-write increments serialize on the exclusive table lock, so no
// increment is ever lost. (This is what distinguishes our SI-for-readers
// design from full optimistic SI, where first-committer-wins aborts would be
// needed here.)

TEST_F(SiAnomalyTest, LostUpdatePreventedBy2plWriters) {
  MakeAccounts();
  constexpr int kThreads = 4;
  constexpr int kIncrementsEach = 8;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsEach; ++i) {
        auto txn = db_->Begin();
        if (!txn.ok()) { failures.fetch_add(1); return; }
        // Exclusive lock first: the read below is part of an RMW cycle and
        // must see the latest committed value, not a begin-time snapshot.
        if (!db_->LockTable(*txn, acct_, LockMode::kExclusive).ok()) {
          failures.fetch_add(1);
          return;
        }
        // After the first write-intent the transaction reads live.
        Tid cur = {};
        int bal = -1;
        auto rows = HeapRows(*acct_->heap, db_->ReadSnapshot(*txn));
        for (const HeapRow& r : rows.ok() ? *rows : std::vector<HeapRow>{}) {
          if (r.row[0].AsInt4() == 1) {
            cur = r.tid;
            bal = r.row[1].AsInt4();
          }
        }
        if (bal < 0 ||
            !db_->ReplaceRow(*txn, acct_, cur,
                             {Value::Int4(1), Value::Int4(bal + 1)}).ok() ||
            !db_->Commit(*txn).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  auto check = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(check.ok());
  auto rows = HeapRows(*acct_->heap, db_->ReadSnapshot(*check));
  ASSERT_TRUE(rows.ok());
  int bal = -1;
  for (const HeapRow& r : *rows) {
    if (r.row[0].AsInt4() == 1) {
      bal = r.row[1].AsInt4();
    }
  }
  EXPECT_EQ(bal, 100 + kThreads * kIncrementsEach) << "an increment was lost";
  ASSERT_TRUE(db_->Commit(*check).ok());
}

// -------------------------------------------------------------- write skew
//
// The canonical SI anomaly, and this engine PERMITS it by design: two
// transactions each read (from their pinned begin-time snapshots) a
// predicate the *other* is about to falsify, then write disjoint tables —
// so table-level 2PL never sees a conflict. Full serializability would
// forbid the final state; snapshot isolation accepts it. DESIGN.md documents
// this as the price of lock-free reads; applications needing the stronger
// guarantee must take explicit exclusive locks on every table they read.

TEST_F(SiAnomalyTest, WriteSkewPermittedByDesign) {
  // Two one-row tables standing in for "doctors on call in ward A / ward B";
  // the intended (but undeclared) invariant is that not both go empty.
  auto setup = db_->Begin();
  ASSERT_TRUE(setup.ok());
  auto ta = db_->catalog().CreateTable(*setup, "on_call_a",
                                       Schema{{"id", TypeId::kInt4}},
                                       kDeviceMagneticDisk);
  auto tb = db_->catalog().CreateTable(*setup, "on_call_b",
                                       Schema{{"id", TypeId::kInt4}},
                                       kDeviceMagneticDisk);
  ASSERT_TRUE(ta.ok() && tb.ok());
  auto ra = db_->InsertRow(*setup, *ta, {Value::Int4(1)});
  auto rb = db_->InsertRow(*setup, *tb, {Value::Int4(2)});
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_TRUE(db_->Commit(*setup).ok());

  auto t1 = db_->Begin();
  auto t2 = db_->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());

  // Each checks its precondition on the *other* table from its pinned
  // begin-time snapshot: "someone is still on call over there".
  EXPECT_EQ(CountRows(*tb, db_->ReadSnapshot(*t1)), 1);
  EXPECT_EQ(CountRows(*ta, db_->ReadSnapshot(*t2)), 1);

  // Then each takes its own doctor off call. Disjoint tables, disjoint
  // exclusive locks: 2PL admits both.
  ASSERT_TRUE(db_->DeleteRow(*t1, *ta, *ra).ok());
  ASSERT_TRUE(db_->DeleteRow(*t2, *tb, *rb).ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());

  // Both preconditions were true when read, both writes committed, and the
  // combined state no serial order could produce stands: both tables empty.
  auto check = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(CountRows(*ta, db_->ReadSnapshot(*check)), 0);
  EXPECT_EQ(CountRows(*tb, db_->ReadSnapshot(*check)), 0);
  ASSERT_TRUE(db_->Commit(*check).ok());
}

// --------------------------------------------------- writers never block readers
//
// A writer session holds the exclusive chunk-table lock of an open file
// (uncommitted overwrite in flight). A reader on the same thread then reads
// the file: if the read path still took data locks this would deadlock (the
// test would hang); instead it completes immediately and sees the last
// committed contents. Same for readdir against an uncommitted create.

TEST_F(SiAnomalyTest, WritersNeverBlockReaders) {
  WriteFile(writer_.get(), "/shared.txt", "committed contents");

  ASSERT_TRUE(writer_->p_begin().ok());
  auto wfd = writer_->p_open("/shared.txt", OpenMode::kWrite);
  ASSERT_TRUE(wfd.ok());
  const std::string overwrite = "UNCOMMITTED overwrite";
  ASSERT_TRUE(writer_->p_write(
      *wfd, std::as_bytes(std::span(overwrite.data(), overwrite.size()))).ok());
  auto nfd = writer_->p_creat("/new-uncommitted.txt");
  ASSERT_TRUE(nfd.ok());

  // Reader proceeds while the writer's exclusive locks are held, and sees
  // only committed state.
  EXPECT_EQ(ReadFile(reader_.get(), "/shared.txt"), "committed contents");
  auto st = reader_->stat("/shared.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, static_cast<int64_t>(std::string("committed contents").size()));
  auto entries = reader_->readdir("/");
  ASSERT_TRUE(entries.ok());
  for (const DirEntry& e : *entries) {
    EXPECT_NE(e.name, "new-uncommitted.txt");
  }

  ASSERT_TRUE(writer_->p_close(*wfd).ok());
  ASSERT_TRUE(writer_->p_close(*nfd).ok());
  ASSERT_TRUE(writer_->p_commit().ok());
  EXPECT_EQ(ReadFile(reader_.get(), "/shared.txt"), "UNCOMMITTED overwrite");
}

// ---------------------------------------------------- lock-freedom evidence
//
// The acceptance criterion, measured: across read-only p_open/p_read/stat/
// readdir — including a historical (time-travel) open, the satellite-1
// regression — the lock.acquisitions counter must not move and no
// "lock.wait" span may be recorded.

TEST_F(SiAnomalyTest, ReadOnlyOpsAcquireZeroDataLocks) {
  WriteFile(writer_.get(), "/a.txt", "version one");
  const Timestamp t1 = db_->Now();
  {
    ASSERT_TRUE(writer_->p_begin().ok());
    auto fd = writer_->p_open("/a.txt", OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    const std::string v2 = "version TWO";
    ASSERT_TRUE(writer_->p_write(
        *fd, std::as_bytes(std::span(v2.data(), v2.size()))).ok());
    ASSERT_TRUE(writer_->p_close(*fd).ok());
    ASSERT_TRUE(writer_->p_commit().ok());
  }

  const uint64_t locks_before = LockAcquisitions();
  const uint64_t spans_before = db_->metrics().spans().TotalRecorded();

  // Current-time reads.
  EXPECT_EQ(ReadFile(reader_.get(), "/a.txt"), "version TWO");
  EXPECT_TRUE(reader_->stat("/a.txt").ok());
  EXPECT_TRUE(reader_->readdir("/").ok());
  // Historical read (satellite 1: SnapFor's time-travel path).
  EXPECT_EQ(ReadFile(reader_.get(), "/a.txt", t1), "version one");
  // POSTQUEL retrieve.
  auto rs = fs_->Query("retrieve (n.filename) from n in naming");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();

  EXPECT_EQ(LockAcquisitions(), locks_before)
      << "a read-only operation went through the lock manager";
  EXPECT_EQ(LockWaitSpansSince(spans_before), 0u)
      << "a read-only operation waited on a data lock";
}

// Read-only transactions stay off the lock manager even while vacuum holds
// exclusive locks elsewhere in the system — and vacuum never reclaims a
// version a pinned reader might still need (the OldestActiveXmin horizon).

TEST_F(SiAnomalyTest, PinnedReaderSurvivesVacuum) {
  MakeAccounts();
  // Pin a snapshot that sees balance 100 in row A.
  auto reader = db_->Begin(TxnMode::kReadOnly);
  ASSERT_TRUE(reader.ok());
  const Snapshot snap = db_->ReadSnapshot(*reader);

  // Overwrite row A (old version now dead to future snapshots) and vacuum.
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(
      db_->ReplaceRow(*w, acct_, tid_a_, {Value::Int4(1), Value::Int4(7)}).ok());
  ASSERT_TRUE(db_->Commit(*w).ok());

  VacuumCleaner vacuum(db_.get());
  auto vt = db_->Begin();
  ASSERT_TRUE(vt.ok());
  auto stats = vacuum.VacuumTable(*vt, acct_, /*keep_history=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db_->Commit(*vt).ok());

  // The dead version was NOT reclaimed: the pinned reader still sees it.
  EXPECT_EQ(stats->archived + stats->discarded, 0u)
      << "vacuum reclaimed a version below an active reader's horizon";
  EXPECT_EQ(SumBalances(snap), 200);
  ASSERT_TRUE(db_->Commit(*reader).ok());

  // With the reader gone the horizon advances and vacuum may reclaim.
  auto vt2 = db_->Begin();
  ASSERT_TRUE(vt2.ok());
  auto stats2 = vacuum.VacuumTable(*vt2, acct_, /*keep_history=*/true);
  ASSERT_TRUE(stats2.ok());
  ASSERT_TRUE(db_->Commit(*vt2).ok());
  EXPECT_EQ(stats2->archived, 1u);
}

}  // namespace
}  // namespace invfs
