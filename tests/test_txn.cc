// Unit tests: commit log, snapshot visibility, 2PL lock manager.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/catalog/database.h"
#include "src/txn/commit_log.h"
#include "src/util/bytes.h"
#include "src/txn/lock_manager.h"
#include "src/txn/snapshot.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

// ---------------------------------------------------------------- CommitLog

// Begins the log's next transaction; fails the test when the begin fails.
TxnId BeginNext(CommitLog& log) {
  auto xid = log.BeginTxn();
  EXPECT_TRUE(xid.ok()) << xid.status().ToString();
  return xid.ok() ? *xid : kInvalidTxn;
}

class CommitLogTest : public ::testing::Test {
 protected:
  CommitLogTest() : dev_(&store_) {}
  MemBlockStore store_;
  NvramDevice dev_;  // zero-cost device keeps these tests about semantics
};

// Forwards to an NvramDevice but fails every WriteBlock while armed, to
// exercise the flush-failure paths.
class FailingWriteDevice final : public DeviceManager {
 public:
  explicit FailingWriteDevice(BlockStore* store) : inner_(store) {}

  std::string_view name() const override { return "failing-write"; }
  Status CreateRelation(Oid rel) override { return inner_.CreateRelation(rel); }
  Status DropRelation(Oid rel) override { return inner_.DropRelation(rel); }
  bool RelationExists(Oid rel) const override { return inner_.RelationExists(rel); }
  Result<uint32_t> NumBlocks(Oid rel) const override { return inner_.NumBlocks(rel); }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override {
    return inner_.ReadBlock(rel, block, out);
  }
  Status WriteBlock(Oid rel, uint32_t block, std::span<const std::byte> data) override {
    if (fail_writes.load()) {
      return Status::Internal("injected write failure");
    }
    return inner_.WriteBlock(rel, block, data);
  }

  std::atomic<bool> fail_writes{false};

 private:
  NvramDevice inner_;
};

TEST(CommitLogFailureTest, UnflushedCommitIsNeverVisible) {
  MemBlockStore store;
  FailingWriteDevice dev(&store);
  auto log_or = CommitLog::Open(&dev);
  ASSERT_TRUE(log_or.ok());
  CommitLog& log = **log_or;

  const TxnId xid = BeginNext(log);
  ASSERT_EQ(xid, kBootstrapTxn + 1);
  dev.fail_writes.store(true);
  EXPECT_FALSE(log.CommitTxn(xid, 42).ok());

  // The commit decision never reached the device, so a crash right now would
  // recover xid as aborted. Visibility must agree: readers may not observe a
  // commit that recovery could take back.
  EXPECT_EQ(log.StatusOf(xid), TxnStatus::kInProgress);
  EXPECT_EQ(log.CommitTimeOf(xid), 0u);
  EXPECT_FALSE(log.CommittedBefore(xid, 1000));

  // What a crash actually does: reopen over the same store sees the
  // in-progress entry and aborts it — consistent with what readers saw.
  NvramDevice clean(&store);
  auto reopened = CommitLog::Open(&clean);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->StatusOf(xid), TxnStatus::kAborted);
}

TEST(CommitLogFailureTest, UndurableDeleterIsNotDeadForever) {
  MemBlockStore store;
  FailingWriteDevice dev(&store);
  auto log_or = CommitLog::Open(&dev);
  ASSERT_TRUE(log_or.ok());
  CommitLog& log = **log_or;

  // A deleter whose commit decision never reached the device: in memory the
  // entry may carry kCommitted, but its covering flush failed, so a crash
  // right now would recover it as aborted — and the deleted version would be
  // live again.
  const TxnId deleter = BeginNext(log);
  ASSERT_EQ(deleter, kBootstrapTxn + 1);
  dev.fail_writes.store(true);
  EXPECT_FALSE(log.CommitTxn(deleter, 100).ok());

  TupleMeta meta;
  meta.xmin = kBootstrapTxn;
  meta.xmax = deleter;

  // Vacuum's archiving criterion must say "not dead": IsDeadForever reads
  // status through the same durability gate as visibility, so the
  // committed-but-unflushed delete does not qualify. Archiving here would
  // destroy a version that crash recovery still needs.
  Snapshot snap;
  snap.log = &log;
  EXPECT_FALSE(snap.IsDeadForever(meta))
      << "vacuum would archive a version whose deleter's commit is not durable";
  // The version is still visible, consistently with not-dead.
  EXPECT_TRUE(snap.IsVisible(meta));
}

TEST_F(CommitLogTest, LifecycleOfOneTxn) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  const TxnId xid = BeginNext(**log);
  EXPECT_EQ((*log)->StatusOf(xid), TxnStatus::kInProgress);
  ASSERT_TRUE((*log)->CommitTxn(xid, 1234).ok());
  EXPECT_EQ((*log)->StatusOf(xid), TxnStatus::kCommitted);
  EXPECT_EQ((*log)->CommitTimeOf(xid), 1234u);
  EXPECT_TRUE((*log)->CommittedBefore(xid, 1234));
  EXPECT_TRUE((*log)->CommittedBefore(xid, 9999));
  EXPECT_FALSE((*log)->CommittedBefore(xid, 1233));
}

TEST_F(CommitLogTest, BootstrapAlwaysCommittedAtZero) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->StatusOf(kBootstrapTxn), TxnStatus::kCommitted);
  EXPECT_TRUE((*log)->CommittedBefore(kBootstrapTxn, 0));
}

TEST_F(CommitLogTest, AbortIsRemembered) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  const TxnId xid = BeginNext(**log);
  ASSERT_TRUE((*log)->AbortTxn(xid).ok());
  EXPECT_EQ((*log)->StatusOf(xid), TxnStatus::kAborted);
  EXPECT_FALSE((*log)->CommittedBefore(xid, ~0ull));
}

TEST_F(CommitLogTest, ReopenRecoversStateAndAbortsInFlight) {
  {
    auto log = CommitLog::Open(&dev_);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ(BeginNext(**log), 2u);
    ASSERT_TRUE((*log)->CommitTxn(2, 50).ok());
    ASSERT_EQ(BeginNext(**log), 3u);  // never commits: "crash"
  }
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->StatusOf(2), TxnStatus::kCommitted);
  EXPECT_EQ((*log)->CommitTimeOf(2), 50u);
  EXPECT_EQ((*log)->StatusOf(3), TxnStatus::kAborted)
      << "in-progress at crash must read as aborted";
  EXPECT_GE((*log)->MaxTxnId(), 3u) << "xids must not be reused after crash";
  EXPECT_GT(BeginNext(**log), 3u) << "xids must not be reused after crash";
}

// Regression: recovery used to convert in-progress entries to aborted only in
// memory. A second crash before the next flush resurrected them as
// in-progress on disk, and offline readers of the raw image (invfs_check)
// disagreed with the running system about their fate. Recovery must persist
// the conversion.
TEST_F(CommitLogTest, DoubleCrashKeepsConvertedAbortsOnDisk) {
  {
    auto log = CommitLog::Open(&dev_);
    ASSERT_TRUE(log.ok());
    ASSERT_EQ(BeginNext(**log), 2u);  // crash #1 with txn 2 in flight
  }
  {
    auto log = CommitLog::Open(&dev_);  // recovery converts 2 to aborted...
    ASSERT_TRUE(log.ok());
    ASSERT_EQ((*log)->StatusOf(2), TxnStatus::kAborted);
    // ...and crash #2 happens before any further transition could flush.
  }
  // The raw device image must already record the abort (16-byte entries, u32
  // status first — the documented on-disk layout).
  std::vector<std::byte> raw(kPageSize);
  ASSERT_TRUE(dev_.ReadBlock(kCommitLogRelOid, 0, raw).ok());
  EXPECT_EQ(GetU32(raw.data() + 2 * 16),
            static_cast<uint32_t>(TxnStatus::kAborted))
      << "recovery left the converted abort unpersisted";

  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->StatusOf(2), TxnStatus::kAborted);
  EXPECT_GE((*log)->MaxTxnId(), 2u) << "xid 2 must never be reallocated";
}

TEST_F(CommitLogTest, GroupCommitCountersAreExactWithoutConcurrency) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  for (TxnId x = 2; x < 12; ++x) {
    ASSERT_EQ(BeginNext(**log), x);
    ASSERT_TRUE((*log)->CommitTxn(x, x).ok());
  }
  // 20 transitions, but only 11 durable waits: the first begin advances the
  // xid horizon (1 request) and covers the other 9 begins; each commit is a
  // request of its own. Single-threaded there is nobody to coalesce with, so
  // every request leads its own batch of one page write — already half the
  // one-write-per-transition cost, deterministically.
  EXPECT_EQ((*log)->persist_requests(), 11u);
  EXPECT_EQ((*log)->persist_batches(), 11u);
  EXPECT_EQ((*log)->device_page_writes(), 11u);
  // Aborts piggyback: no new batch, no new write.
  ASSERT_EQ(BeginNext(**log), 12u);
  const uint64_t batches = (*log)->persist_batches();
  ASSERT_TRUE((*log)->AbortTxn(12).ok());
  EXPECT_EQ((*log)->persist_batches(), batches);
}

TEST_F(CommitLogTest, ManyTxnsSpanLogPages) {
  {
    auto log = CommitLog::Open(&dev_);
    ASSERT_TRUE(log.ok());
    for (TxnId x = 2; x < 1200; ++x) {
      ASSERT_EQ(BeginNext(**log), x);
      ASSERT_TRUE((*log)->CommitTxn(x, x * 10).ok());
    }
  }
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->CommitTimeOf(600), 6000u);
  EXPECT_EQ((*log)->CommitTimeOf(1199), 11990u);
}

TEST_F(CommitLogTest, RejectsProtocolViolations) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->CommitTxn(77, 1).ok());  // never began
  const TxnId xid = BeginNext(**log);
  EXPECT_NE(BeginNext(**log), xid);  // never handed out twice
  ASSERT_TRUE((*log)->CommitTxn(xid, 1).ok());
  EXPECT_FALSE((*log)->CommitTxn(xid, 2).ok());  // already committed
  EXPECT_FALSE((*log)->AbortTxn(xid).ok());  // already committed
}

// ------------------------------------------------------ Snapshot visibility

// Parametrized truth table: (xmin state, xmax state, snapshot kind) -> visible.
struct VisCase {
  const char* name;
  bool xmin_committed;
  Timestamp xmin_time;
  bool has_xmax;
  bool xmax_committed;
  Timestamp xmax_time;
  Timestamp as_of;
  bool expect_visible;
};

class VisibilityTest : public ::testing::TestWithParam<VisCase> {};

TEST_P(VisibilityTest, Matrix) {
  const VisCase& c = GetParam();
  MemBlockStore store;
  NvramDevice dev(&store);
  auto log = CommitLog::Open(&dev);
  ASSERT_TRUE(log.ok());

  const TxnId kIns = BeginNext(**log);
  if (c.xmin_committed) {
    ASSERT_TRUE((*log)->CommitTxn(kIns, c.xmin_time).ok());
  }
  const TxnId kDel = BeginNext(**log);
  if (c.has_xmax && c.xmax_committed) {
    ASSERT_TRUE((*log)->CommitTxn(kDel, c.xmax_time).ok());
  }

  TupleMeta meta{0, kIns, c.has_xmax ? kDel : kInvalidTxn};
  Snapshot snap{c.as_of, kInvalidTxn, log->get(), nullptr};
  EXPECT_EQ(snap.IsVisible(meta), c.expect_visible) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VisibilityTest,
    ::testing::Values(
        VisCase{"live_committed_row", true, 100, false, false, 0, kTimestampNow, true},
        VisCase{"uncommitted_insert", false, 0, false, false, 0, kTimestampNow, false},
        VisCase{"deleted_by_committed", true, 100, true, true, 200, kTimestampNow,
                false},
        VisCase{"delete_in_progress_still_visible", true, 100, true, false, 0,
                kTimestampNow, true},
        VisCase{"historical_before_insert", true, 100, false, false, 0, 99, false},
        VisCase{"historical_at_insert", true, 100, false, false, 0, 100, true},
        VisCase{"historical_between_versions", true, 100, true, true, 200, 150, true},
        VisCase{"historical_after_delete", true, 100, true, true, 200, 200, false},
        VisCase{"historical_uncommitted_insert", false, 0, false, false, 0, 500,
                false}),
    [](const ::testing::TestParamInfo<VisCase>& param_info) {
      return param_info.param.name;
    });

TEST(Snapshot, OwnWritesVisibleOnlyToSelfAndOnlyNow) {
  MemBlockStore store;
  NvramDevice dev(&store);
  auto log = CommitLog::Open(&dev);
  ASSERT_TRUE(log.ok());
  const TxnId me = BeginNext(**log);
  TupleMeta mine{0, me, kInvalidTxn};

  Snapshot self{kTimestampNow, me, log->get(), nullptr};
  Snapshot other{kTimestampNow, me + 1, log->get(), nullptr};
  Snapshot historical{999999, me, log->get(), nullptr};
  EXPECT_TRUE(self.IsVisible(mine));
  EXPECT_FALSE(other.IsVisible(mine));
  EXPECT_FALSE(historical.IsVisible(mine)) << "time travel never sees in-flight work";
}

TEST(Snapshot, OwnDeleteHidesRowFromSelf) {
  MemBlockStore store;
  NvramDevice dev(&store);
  auto log = CommitLog::Open(&dev);
  ASSERT_TRUE(log.ok());
  const TxnId writer = BeginNext(**log);
  ASSERT_TRUE((*log)->CommitTxn(writer, 10).ok());
  const TxnId me = BeginNext(**log);
  TupleMeta meta{0, writer, me};  // I deleted a committed row
  Snapshot self{kTimestampNow, me, log->get(), nullptr};
  Snapshot other{kTimestampNow, me + 1, log->get(), nullptr};
  EXPECT_FALSE(self.IsVisible(meta));
  EXPECT_TRUE(other.IsVisible(meta)) << "uncommitted delete invisible to others";
}

TEST(Snapshot, DeadForeverMatchesVacuumCriterion) {
  MemBlockStore store;
  NvramDevice dev(&store);
  auto log = CommitLog::Open(&dev);
  ASSERT_TRUE(log.ok());
  const TxnId writer = BeginNext(**log);
  ASSERT_TRUE((*log)->CommitTxn(writer, 10).ok());
  const TxnId deleter = BeginNext(**log);
  Snapshot snap{kTimestampNow, kInvalidTxn, log->get(), nullptr};
  EXPECT_FALSE(snap.IsDeadForever(TupleMeta{0, writer, kInvalidTxn}));
  EXPECT_FALSE(snap.IsDeadForever(TupleMeta{0, writer, deleter}))
      << "deleter still running";
  ASSERT_TRUE((*log)->CommitTxn(deleter, 20).ok());
  EXPECT_TRUE(snap.IsDeadForever(TupleMeta{0, writer, deleter}));
}

// Regression: xids used to be allocated by TxnManager and registered with
// the commit log afterwards, so xid 11 could reach the log before xid 10. A
// capture in that gap had xmax 12 and xip {11}: xid 10 was in view, so once
// it committed, a pinned snapshot's answer for it flipped from invisible to
// visible. The log now allocates and registers each xid in one step, so
// every xid below a capture's xmax was registered when it was taken.
TEST_F(CommitLogTest, PinnedAnswerSurvivesCommitsOfNeighbouringXids) {
  auto log = CommitLog::Open(&dev_);
  ASSERT_TRUE(log.ok());
  const TxnId a = BeginNext(**log);
  const auto state = (*log)->CaptureState();
  EXPECT_EQ(state->xmax, a + 1) << "xmax must be the next xid to hand out";
  const Snapshot pinned{kTimestampNow, kInvalidTxn, log->get(), state};
  const TxnId b = BeginNext(**log);
  EXPECT_EQ(b, state->xmax);
  EXPECT_FALSE(pinned.XidVisible(a));
  EXPECT_FALSE(pinned.XidVisible(b));
  ASSERT_TRUE((*log)->CommitTxn(b, 10).ok());
  ASSERT_TRUE((*log)->CommitTxn(a, 20).ok());
  EXPECT_FALSE(pinned.XidVisible(a)) << "pinned answer changed";
  EXPECT_FALSE(pinned.XidVisible(b)) << "pinned answer changed";
  const Snapshot fresh{kTimestampNow, kInvalidTxn, log->get(),
                       (*log)->CaptureState()};
  EXPECT_TRUE(fresh.XidVisible(a));
  EXPECT_TRUE(fresh.XidVisible(b));
}

// The same property under real races, through the full begin path: threads
// begin and commit while captures are taken. Every answer a capture gave must
// be the answer it gives after all those transactions have committed.
TEST(TxnManagerRaceTest, PinnedAnswersHoldWhileBeginsRace) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;
  CommitLog& log = db.commit_log();

  constexpr int kThreads = 4;
  constexpr int kTxnsEach = 1000;
  std::atomic<int> running{kThreads};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsEach; ++i) {
        auto txn = db.Begin();
        if (!txn.ok() || !db.Commit(*txn).ok()) {
          failures.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  struct Capture {
    Snapshot snap;
    std::vector<bool> visible;  // XidVisible(x) for x < xmax
  };
  std::vector<Capture> captures;
  while (running.load() > 0 && captures.size() < 1000) {
    auto state = log.CaptureState();
    Capture c{Snapshot{kTimestampNow, kInvalidTxn, &log, state}, {}};
    for (TxnId x = 0; x < state->xmax; ++x) {
      c.visible.push_back(c.snap.XidVisible(x));
    }
    captures.push_back(std::move(c));
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);
  for (const Capture& c : captures) {
    for (TxnId x = 0; x < c.visible.size(); ++x) {
      ASSERT_EQ(c.snap.XidVisible(x), c.visible[x])
          << "xid " << x << " changed its answer in a capture with xmax "
          << c.snap.frozen->xmax;
    }
  }
}

// CaptureState hands a thread its previous capture back while nothing that
// could change it has happened, and a new one as soon as something has — in
// this log, not in some other log that happens to have seen as many changes.
TEST_F(CommitLogTest, CaptureIsReusedUntilItsLogChanges) {
  std::shared_ptr<const SnapshotState> first;
  {
    auto log = CommitLog::Open(&dev_);
    ASSERT_TRUE(log.ok());
    const TxnId a = BeginNext(**log);
    const TxnId b = BeginNext(**log);
    const TxnId c = BeginNext(**log);
    first = (*log)->CaptureState();
    EXPECT_EQ(first, (*log)->CaptureState()) << "unchanged log, new capture";
    EXPECT_EQ(first->xip, (std::vector<TxnId>{a, b, c}));
    ASSERT_TRUE((*log)->CommitTxn(a, 5).ok());
    const auto after = (*log)->CaptureState();
    EXPECT_NE(after, first) << "a commit landed but the capture was reused";
    EXPECT_EQ(after->xip, (std::vector<TxnId>{b, c}));
  }
  // A second log, possibly at the same address, with as many changes behind
  // it: its capture must describe it, not the first log.
  MemBlockStore other_store;
  NvramDevice other_dev(&other_store);
  auto other = CommitLog::Open(&other_dev);
  ASSERT_TRUE(other.ok());
  const TxnId x = BeginNext(**other);
  ASSERT_TRUE((*other)->AbortTxn(x).ok());
  const TxnId y = BeginNext(**other);
  ASSERT_TRUE((*other)->AbortTxn(y).ok());
  const auto state = (*other)->CaptureState();
  EXPECT_EQ(state->xmax, y + 1);
  EXPECT_TRUE(state->xip.empty());
}

// -------------------------------------------------------------- LockManager

TEST(LockManager, SharedLocksAreCompatible) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, 100, LockMode::kShared));
}

TEST(LockManager, ReentrantAndUpgrade) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kExclusive).ok());  // sole holder
  EXPECT_TRUE(lm.Holds(1, 100, LockMode::kExclusive));
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kShared).ok());  // X covers S
}

TEST(LockManager, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kShared).ok());
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired);
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired);
}

TEST(LockManager, DeadlockDetected) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(2, 200, LockMode::kExclusive).ok());
  // A deadlock victim releases everything, as Database::LockTable's abort
  // does, so whichever txn loses, the other is granted and nothing hangs.
  std::atomic<TxnId> victim{0};
  auto acquire = [&](TxnId txn, Oid rel) {
    Status s = lm.Acquire(txn, rel, LockMode::kExclusive);
    if (s.IsDeadlock()) {
      victim = txn;
      lm.ReleaseAll(txn);
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  };
  // Txn 1 waits for 200 (held by 2). The wait is registered under the lock
  // manager's mutex before it sleeps, so once it shows, txn 1 is blocked.
  std::thread t1(acquire, 1, 200);
  while (lm.DumpWaitsFor().empty()) {
    std::this_thread::yield();
  }
  // Txn 2 requesting 100 closes the cycle: must be told, not blocked forever.
  acquire(2, 100);
  t1.join();
  EXPECT_EQ(victim.load(), 2u);
  EXPECT_TRUE(lm.Holds(1, 200, LockMode::kExclusive));
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.NumLockedRelations(), 0u);
}

TEST(LockManager, ReleaseAllFreesEverything) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, 100, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(1, 200, LockMode::kShared).ok());
  EXPECT_EQ(lm.NumLockedRelations(), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumLockedRelations(), 0u);
  ASSERT_TRUE(lm.Acquire(2, 100, LockMode::kExclusive).ok());
}

// -------------------------------------------------- concurrent transactions

TEST(TxnConcurrency, TwoWritersSerializeOnTable) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;
  auto setup = db.Begin();
  auto table = db.catalog().CreateTable(*setup, "t", Schema{{"k", TypeId::kInt4}},
                                        kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.Commit(*setup).ok());

  constexpr int kPerWriter = 50;
  auto writer = [&](int base) {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db.LockTable(*txn, *table, LockMode::kExclusive).ok());
    for (int i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(db.InsertRow(*txn, *table, {Value::Int4(base + i)}).ok());
    }
    ASSERT_TRUE(db.Commit(*txn).ok());
  };
  std::thread a(writer, 0);
  std::thread b(writer, 1000);
  a.join();
  b.join();

  auto reader = db.Begin();
  auto rows = HeapRows(*(*table)->heap, db.SnapshotFor(*reader));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), size_t{2 * kPerWriter});
  ASSERT_TRUE(db.Commit(*reader).ok());
}

}  // namespace
}  // namespace invfs
