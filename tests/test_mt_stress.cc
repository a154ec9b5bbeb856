// Multi-threaded stress tests for the sharded buffer pool and the
// group-commit path. These are the TSan targets for PR 3's concurrency work:
// scripts/check.sh runs the whole ctest suite under -fsanitize=thread, so any
// data race in pin/evict/flush interleavings or in the commit-log flush
// protocol fails the tier-2 gate here.
//
// Workload-shape note: writers mutate only pages they hold pinned, and each
// writer owns its relation — mirroring the 2PL discipline (X lock per written
// relation) the engine runs under. Eviction write-back and hole-filling of
// *released* pages race freely with everything else, which is the schedule
// being tested.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/access/key_codec.h"
#include "src/buffer/buffer_pool.h"
#include "src/catalog/database.h"
#include "src/fault/switch_entry.h"
#include "src/harness/worlds.h"
#include "src/inversion/inv_fs.h"
#include "src/load/loadgen.h"
#include "src/obs/metrics.h"
#include "src/txn/commit_log.h"
#include "src/util/random.h"
#include "src/vacuum/vacuum.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

class MtStressTest : public ::testing::Test {
 protected:
  MtStressTest() {
    sw_.Register(kDeviceMagneticDisk,
                 std::make_unique<MagneticDiskDevice>(&store_, &clock_, DiskParams{}));
  }

  void CreateRel(Oid rel) {
    ASSERT_TRUE(sw_.Get(kDeviceMagneticDisk)->CreateRelation(rel).ok());
    sw_.BindRelation(rel, kDeviceMagneticDisk);
  }

  SimClock clock_;
  MemBlockStore store_;
  DeviceSwitch sw_;
};

TEST_F(MtStressTest, ConcurrentPinEvictFlush) {
  constexpr Oid kSharedRel = 1;
  constexpr uint32_t kSharedBlocks = 64;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kItersPerThread = 2000;

  CreateRel(kSharedRel);
  // Pool far smaller than the working set: every reader iteration has a real
  // chance of forcing an eviction, and writer extensions contend for frames.
  BufferPool pool(&sw_, 16, &clock_, CpuParams{}, /*partitions=*/8);

  // Seed the shared relation and force it to the device so readers always
  // find valid self-identifying pages.
  for (uint32_t b = 0; b < kSharedBlocks; ++b) {
    auto ref = pool.Extend(kSharedRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->data()[kPageHeaderSize] = std::byte{static_cast<uint8_t>(b)};
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  std::atomic<int> failures{0};
  auto note_failure = [&](const Status& s) {
    // All-buffers-pinned is a legal transient under extreme contention, but
    // with 16 frames and 6 threads it should never actually happen.
    (void)s;
    failures.fetch_add(1);
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9e3779b9u * (t + 1));
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint32_t b = static_cast<uint32_t>(rng.Next() % kSharedBlocks);
        auto ref = pool.Pin(kSharedRel, b);
        if (!ref.ok()) {
          note_failure(ref.status());
          continue;
        }
        if (ref->data()[kPageHeaderSize] != std::byte{static_cast<uint8_t>(b)}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    const Oid rel = 100 + t;  // each writer owns its relation (2PL analogue)
    CreateRel(rel);
    threads.emplace_back([&, rel] {
      uint32_t extended = 0;
      for (int i = 0; i < kItersPerThread / 10; ++i) {
        auto ref = pool.Extend(rel, nullptr);
        if (!ref.ok()) {
          note_failure(ref.status());
          continue;
        }
        ref->data()[kPageHeaderSize] = std::byte{0x5A};
        ref->MarkDirty();
        ref->Release();
        ++extended;
        if (extended % 8 == 0) {
          Status s = pool.FlushRelation(rel);
          if (!s.ok()) {
            note_failure(s);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Post-condition: flushing everything must leave hole-free relations whose
  // pages read back clean (checksums verified on the Pin path).
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());
  for (int t = 0; t < kWriters; ++t) {
    const Oid rel = 100 + t;
    auto n = store_.NumBlocks(rel);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, static_cast<uint32_t>(kItersPerThread / 10));
    for (uint32_t b = 0; b < *n; ++b) {
      auto ref = pool.Pin(rel, b);
      ASSERT_TRUE(ref.ok()) << "rel " << rel << " block " << b;
      EXPECT_EQ(ref->data()[kPageHeaderSize], std::byte{0x5A});
    }
  }
}

TEST_F(MtStressTest, CrossThreadPinHandoffUnderLoad) {
  constexpr Oid kRel = 1;
  CreateRel(kRel);
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, /*partitions=*/4);
  for (int b = 0; b < 4; ++b) {
    auto ref = pool.Extend(kRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  // Producer pins pages, consumer releases them — the PageRef migration that
  // used to drive the per-thread pin counter negative.
  constexpr int kHandoffs = 1000;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<PageRef> queue;
  bool done = false;

  std::thread consumer([&] {
    int consumed = 0;
    std::unique_lock lock(mu);
    while (consumed < kHandoffs) {
      cv.wait(lock, [&] { return !queue.empty() || done; });
      while (!queue.empty()) {
        PageRef ref = std::move(queue.back());
        queue.pop_back();
        lock.unlock();
        ref.Release();  // release on a thread that never pinned
        ++consumed;
        lock.lock();
      }
      EXPECT_GE(BufferPool::ThreadPinCount(), 0)
          << "cross-thread release corrupted the consumer's pin count";
    }
  });

  for (int i = 0; i < kHandoffs; ++i) {
    auto ref = pool.Pin(kRel, static_cast<uint32_t>(i % 4));
    ASSERT_TRUE(ref.ok());
    std::lock_guard lock(mu);
    queue.push_back(std::move(*ref));
    cv.notify_one();
  }
  {
    std::lock_guard lock(mu);
    done = true;
    cv.notify_one();
  }
  consumer.join();

  EXPECT_EQ(BufferPool::ThreadPinCount(), 0)
      << "producer's pins must be debited when the consumer releases them";
  // Every pin must be returned to the frames: invalidation requires pins==0.
  EXPECT_TRUE(pool.FlushAndInvalidate().ok());
}

// FlushAndInvalidate's pin check must be atomic against the hit path: a Pin
// racing with the invalidation either completes first (and the invalidation
// refuses) or misses afterwards — it can never be handed a frame that is
// being invalidated or remapped under it.
TEST_F(MtStressTest, FlushAndInvalidateRacingPins) {
  constexpr Oid kRel = 1;
  constexpr uint32_t kBlocks = 8;
  CreateRel(kRel);
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, /*partitions=*/4);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    auto ref = pool.Extend(kRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->data()[kPageHeaderSize] = std::byte{static_cast<uint8_t>(b)};
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> corrupt{0};
  std::thread reader([&] {
    Rng rng(0xfeedface);
    while (!stop.load()) {
      const uint32_t b = static_cast<uint32_t>(rng.Next() % kBlocks);
      auto ref = pool.Pin(kRel, b);
      if (ref.ok() &&
          ref->data()[kPageHeaderSize] != std::byte{static_cast<uint8_t>(b)}) {
        corrupt.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    const Status s = pool.FlushAndInvalidate();
    if (!s.ok()) {
      // Legal refusal: the reader held a pin at that instant.
      EXPECT_EQ(s.code(), ErrorCode::kInternal);
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_TRUE(pool.FlushAndInvalidate().ok());
}

TEST_F(MtStressTest, GroupCommitConcurrentBeginCommit) {
  NvramDevice dev(&store_);
  auto log_or = CommitLog::Open(&dev);
  ASSERT_TRUE(log_or.ok());
  CommitLog& log = **log_or;

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 200;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto begun = log.BeginTxn();
        if (!begun.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const TxnId xid = *begun;
        if (xid % 7 == 0) {
          if (!log.AbortTxn(xid).ok()) {
            failures.fetch_add(1);
          }
        } else if (!log.CommitTxn(xid, xid * 10).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  const TxnId last = log.MaxTxnId();
  ASSERT_EQ(last, kBootstrapTxn + kThreads * kTxnsPerThread);
  for (TxnId x = kBootstrapTxn + 1; x <= last; ++x) {
    const TxnStatus st = log.StatusOf(x);
    if (x % 7 == 0) {
      EXPECT_EQ(st, TxnStatus::kAborted) << "xid " << x;
    } else {
      EXPECT_EQ(st, TxnStatus::kCommitted) << "xid " << x;
      EXPECT_EQ(log.CommitTimeOf(x), x * 10) << "xid " << x;
    }
  }
  // Batching sanity: the leader/follower protocol can only merge requests,
  // never lose them — and begins batching under the xid horizon plus abort
  // piggybacking must keep device writes strictly below one per transition
  // (2 * txns here: every txn begins, then commits or aborts).
  EXPECT_LE(log.persist_batches(), log.persist_requests());
  EXPECT_GE(log.persist_requests(), 1u);
  EXPECT_LT(log.device_page_writes(),
            2 * static_cast<uint64_t>(kThreads) * kTxnsPerThread);

  // Reopen: every commit decision must have reached the device.
  auto reopened = CommitLog::Open(&dev);
  ASSERT_TRUE(reopened.ok());
  for (TxnId x = kBootstrapTxn + 1; x <= last; x += 13) {
    if (x % 7 != 0) {
      EXPECT_EQ((*reopened)->StatusOf(x), TxnStatus::kCommitted) << "xid " << x;
    }
  }
}

TEST_F(MtStressTest, ConcurrentTransactionsThroughDatabase) {
  StorageEnv env;
  DatabaseOptions opts;
  opts.buffers = 64;
  auto db_or = Database::Open(&env, opts);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  ASSERT_TRUE(setup.ok());
  auto table = db.catalog().CreateTable(*setup, "t", Schema{{"k", TypeId::kInt4}},
                                        kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.InsertRow(*setup, *table, {Value::Int4(i)}).ok());
  }
  ASSERT_TRUE(db.Commit(*setup).ok());

  constexpr int kReaders = 4;
  constexpr int kScansEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kScansEach; ++i) {
        auto txn = db.Begin();
        if (!txn.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!db.LockTable(*txn, *table, LockMode::kShared).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto rows = HeapRows(*(*table)->heap, db.SnapshotFor(*txn));
        if (!rows.ok() || rows->size() != 200) {
          failures.fetch_add(1);
        }
        if (!db.Commit(*txn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// The read-only registry under real parallelism: reader threads run
// read-only transactions (begin, ReadSnapshot, index probes, commit) while a
// writer replaces rows under 2PL and vacuum discards dead versions and
// removes their index entries in place. Each round every reader holds one transaction open
// across writer commits and checks that
//   * its pinned answers never change: the rows it reads and XidVisible for
//     every xid around its capture are the same before and after;
//   * OldestActiveXmin honours its pin, whichever stripe holds it (if vacuum
//     ignored a pin it would discard a version the reader still sees);
//   * ActiveTxnCount is exact: every reader plus at most the writer's and
//     vacuum's transactions while all readers hold, and 0 at the end.
// Between rounds each reader runs a burst of short read-only transactions.
TEST_F(MtStressTest, ReadOnlyRegistryUnderWriterAndVacuum) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  constexpr int kKeys = 32;
  constexpr int kReaders = 4;
  constexpr int kRounds = 20;
  constexpr int kBurst = 50;
  TableInfo* table = nullptr;
  std::vector<Tid> tids;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn.ok());
    auto t = db.catalog().CreateTable(
        *txn, "ro", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kInt4}},
        kDeviceMagneticDisk);
    ASSERT_TRUE(t.ok());
    table = *t;
    ASSERT_TRUE(db.catalog().CreateIndex(*txn, table, {0}).ok());
    for (int k = 0; k < kKeys; ++k) {
      auto tid = db.InsertRow(*txn, table, {Value::Int4(k), Value::Int4(0)});
      ASSERT_TRUE(tid.ok());
      tids.push_back(*tid);
    }
    ASSERT_TRUE(db.Commit(*txn).ok());
  }
  IndexInfo* index = table->indexes.front();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_commits{0};
  std::atomic<int> failures{0};
  auto fail = [&](const std::string& what) {
    failures.fetch_add(1);
    ADD_FAILURE() << what;
  };

  std::thread writer([&] {
    for (int v = 1; !stop.load() && failures.load() == 0; ++v) {
      auto txn = db.Begin();
      if (!txn.ok() || !db.LockTable(*txn, table, LockMode::kExclusive).ok()) {
        return fail("writer could not begin and lock");
      }
      const int k = v % kKeys;
      auto tid = db.ReplaceRow(*txn, table, tids[k], {Value::Int4(k), Value::Int4(v)});
      if (!tid.ok() || !db.Commit(*txn).ok()) {
        return fail("writer could not replace and commit");
      }
      tids[k] = *tid;
      writer_commits.fetch_add(1);
    }
  });
  std::thread vacuum([&] {
    VacuumCleaner cleaner(&db);
    while (!stop.load() && failures.load() == 0) {
      auto txn = db.Begin();
      if (!txn.ok()) {
        return fail("vacuum could not begin");
      }
      auto stats = cleaner.VacuumTable(*txn, table, /*keep_history=*/false);
      if (!stats.ok() || !db.Commit(*txn).ok()) {
        return fail("vacuum failed: " + stats.status().ToString());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The value of every key under `snap`, through the index; false unless
  // exactly one version of each key is visible.
  auto read_all = [&](const Snapshot& snap, std::vector<int>* out) {
    out->clear();
    for (int k = 0; k < kKeys; ++k) {
      Result<TidList> found = index->btree->Lookup(EncodeInt4Key(k));
      if (!found.ok()) {
        return false;
      }
      int visible = 0;
      for (Tid tid : *found) {
        auto row = FetchRow(*table->heap, snap, tid);
        if (!row.ok()) {
          return false;
        }
        if (row->has_value() && (**row)[0].AsInt4() == k) {
          ++visible;
          out->push_back((**row)[1].AsInt4());
        }
      }
      if (visible != 1) {
        return false;
      }
    }
    return true;
  };

  std::barrier sync(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        auto txn = db.Begin(TxnMode::kReadOnly);
        if (!txn.ok()) {
          fail("read-only begin failed");
        }
        const Snapshot snap = db.ReadSnapshot(txn.ok() ? *txn : kInvalidTxn);
        std::vector<int> before;
        std::vector<bool> answers;
        if (snap.is_pinned()) {
          if (!read_all(snap, &before)) {
            fail("pinned read saw no single version of some key");
          }
          for (TxnId x = 0; x < snap.frozen->xmax + 64; ++x) {
            answers.push_back(snap.XidVisible(x));
          }
          const TxnId oldest = db.txns().OldestActiveXmin();
          if (oldest == kInvalidTxn || oldest > snap.frozen->HorizonXid()) {
            fail("OldestActiveXmin " + std::to_string(oldest) +
                 " ignores a live pin with horizon " +
                 std::to_string(snap.frozen->HorizonXid()));
          }
        } else {
          fail("read-only transaction has no pinned snapshot");
        }
        sync.arrive_and_wait();  // every reader holds its transaction
        if (r == 0) {
          const size_t n = db.txns().ActiveTxnCount();
          if (n < kReaders || n > kReaders + 2) {
            fail("ActiveTxnCount " + std::to_string(n) + " with " +
                 std::to_string(kReaders) + " readers holding");
          }
        }
        // Let the writer commit (and vacuum run) underneath the pins.
        const uint64_t target = writer_commits.load() + 3;
        while (writer_commits.load() < target && failures.load() == 0) {
          std::this_thread::yield();
        }
        sync.arrive_and_wait();  // the count above is taken before any commit
        if (snap.is_pinned()) {
          std::vector<int> after;
          const Snapshot again = db.ReadSnapshot(*txn);
          if (!read_all(again, &after) || after != before) {
            fail("pinned rows changed under a writer and vacuum");
          }
          for (TxnId x = 0; x < answers.size(); ++x) {
            if (again.XidVisible(x) != answers[x]) {
              fail("pinned answer for xid " + std::to_string(x) + " changed");
            }
          }
        }
        if (txn.ok() && !db.Commit(*txn).ok()) {
          fail("read-only commit failed");
        }
        for (int i = 0; i < kBurst; ++i) {
          auto quick = db.Begin(TxnMode::kReadOnly);
          if (!quick.ok() || !db.ReadSnapshot(*quick).is_pinned() ||
              !db.Commit(*quick).ok()) {
            fail("short read-only transaction failed");
          }
        }
      }
    });
  }
  for (auto& th : readers) {
    th.join();
  }
  stop.store(true);
  writer.join();
  vacuum.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(writer_commits.load(), static_cast<uint64_t>(kRounds) * 3 - 1);
  EXPECT_EQ(db.txns().ActiveTxnCount(), 0u);
  EXPECT_EQ(db.txns().OldestActiveXmin(), kInvalidTxn);
}

// Readers copy one chunk straight out of its heap page (p_read through
// InvSession::VisitChunk) while a writer replaces that chunk over and over;
// each replacement stamps the old version's xmax and appends the new one on
// the same page, and vacuum compacts that page now and then. Every read must
// return one whole version, never a mix of two, current readers must see
// versions in commit order, and an as-of reader must keep seeing the first
// version (from the archive once vacuum has moved it).
TEST(ChunkReadRaceTest, ReadersCopyOneWholeVersionWhileAWriterReplacesIt) {
  constexpr int kVersions = 200;  // version v is 512 bytes of value v
  constexpr size_t kLen = 512;
  constexpr int kReaders = 4;
  StorageEnv env;
  auto db = Database::Open(&env);
  ASSERT_TRUE(db.ok());
  InversionFs fs(db->get());
  ASSERT_TRUE(fs.Mount().ok());
  auto write_version = [](InvSession& s, int v, bool create) -> Status {
    const std::vector<std::byte> data(kLen, std::byte{static_cast<uint8_t>(v)});
    INV_RETURN_IF_ERROR(s.p_begin());
    INV_ASSIGN_OR_RETURN(int fd, create ? s.p_creat("/hot.bin")
                                        : s.p_open("/hot.bin", OpenMode::kWrite));
    INV_RETURN_IF_ERROR(s.p_write(fd, data).status());
    INV_RETURN_IF_ERROR(s.p_close(fd));
    return s.p_commit();
  };
  auto writer_session = fs.NewSession();
  ASSERT_TRUE(writer_session.ok());
  ASSERT_TRUE(write_version(**writer_session, 1, /*create=*/true).ok());
  const Timestamp first = (*db)->Now();
  std::vector<std::unique_ptr<InvSession>> sessions;
  for (int r = 0; r <= kReaders; ++r) {
    auto s = fs.NewSession();
    ASSERT_TRUE(s.ok());
    sessions.push_back(std::move(*s));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> readers_started{0};  // readers that finished a first read
  auto fail = [&](const std::string& what) {
    if (failures.fetch_add(1) < 5) {
      ADD_FAILURE() << what;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r <= kReaders; ++r) {
    // Reader kReaders reads as of the first commit; the others read now.
    const bool as_of = r == kReaders;
    readers.emplace_back([&, r, as_of] {
      InvSession& s = *sessions[r];
      auto fd = s.p_open("/hot.bin", OpenMode::kRead, as_of ? first : kTimestampNow);
      if (!fd.ok()) {
        return fail("open: " + fd.status().ToString());
      }
      std::vector<std::byte> buf(kLen);
      // Odd readers hold a session transaction across several reads: its
      // pinned snapshot keeps an older version live through vacuum, so
      // compaction moves more than one live version on the page.
      const int reads_per_txn = r % 2 == 1 ? 8 : 1;
      int last = 1;
      bool started = false;
      while (!done.load() && failures.load() == 0) {
        if (reads_per_txn > 1 && !s.p_begin().ok()) {
          return fail("reader could not begin");
        }
        int txn_version = 0;
        for (int i = 0; i < reads_per_txn; ++i) {
          auto n = s.p_lseek(*fd, 0, Whence::kSet);
          auto got = s.p_read(*fd, buf);
          if (!n.ok() || !got.ok() || *got != static_cast<int64_t>(kLen)) {
            return fail("read failed: " + got.status().ToString());
          }
          const int v = static_cast<int>(buf[0]);
          for (std::byte b : buf) {
            if (static_cast<int>(b) != v) {
              return fail("torn read: version " + std::to_string(v) + " mixed with " +
                          std::to_string(static_cast<int>(b)));
            }
          }
          if (txn_version != 0 && v != txn_version) {
            return fail("version " + std::to_string(v) + " after " +
                        std::to_string(txn_version) + " in one snapshot");
          }
          if (as_of ? v != 1 : v < last) {
            return fail("read version " + std::to_string(v) + " after " +
                        std::to_string(last));
          }
          last = v;
          txn_version = v;
          reads.fetch_add(1);
          if (!started) {
            started = true;
            readers_started.fetch_add(1);
          }
        }
        if (reads_per_txn > 1 && !s.p_commit().ok()) {
          return fail("reader could not commit");
        }
      }
    });
  }
  // Every reader reads version 1 at least once before the writer replaces
  // it, so no reader can finish without having read.
  while (readers_started.load() <= kReaders && failures.load() == 0) {
    std::this_thread::yield();
  }
  for (int v = 2; v <= kVersions && failures.load() == 0; ++v) {
    Status st = write_version(**writer_session, v, /*create=*/false);
    if (st.ok() && v % 4 == 0) {
      // Vacuum archives the dead versions and compacts the page, moving the
      // live version's bytes under the readers.
      auto txn = (*db)->Begin();
      st = txn.ok() ? fs.Vacuum(*txn).status() : txn.status();
      if (st.ok()) {
        st = (*db)->Commit(*txn);
      }
    }
    if (!st.ok()) {
      fail("writer: " + st.ToString());
    }
  }
  done.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
}

// Namespace lookups (stat, readdir and a read-mode p_open, each in its own
// read-only transaction) run with no table lock while a writer renames every
// entry of a directory and vacuum reclaims the naming and fileatt tables
// under them. Each lookup must see exactly one name per file, current or as
// of before the first rename, and vacuum's in-place index removals must
// never disturb a lookup inside the same B-tree: they meet only under the
// tree's latch (the TSan target).
TEST(NamespaceLookupRaceTest, StatReaddirAndOpenWhileVacuumRepairsIndexes) {
  constexpr int kFiles = 4;
  constexpr int kRounds = 6;
  constexpr int kReaders = 3;
  StorageEnv env;
  auto db = Database::Open(&env);
  ASSERT_TRUE(db.ok());
  InversionFs fs(db->get());
  ASSERT_TRUE(fs.Mount().ok());
  auto writer_session = fs.NewSession();
  ASSERT_TRUE(writer_session.ok());
  InvSession& w = **writer_session;
  auto name = [](char prefix, int f) { return prefix + std::to_string(f); };
  ASSERT_TRUE(w.mkdir("/d").ok());
  ASSERT_TRUE(w.p_begin().ok());
  for (int f = 0; f < kFiles; ++f) {
    auto fd = w.p_creat("/d/" + name('a', f));
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(w.p_close(*fd).ok());
  }
  ASSERT_TRUE(w.p_commit().ok());
  const Timestamp first = (*db)->Now();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> lookups{0};
  auto fail = [&](const std::string& what) {
    if (failures.fetch_add(1) < 5) {
      ADD_FAILURE() << what;
    }
  };
  // One name per file: the listing holds aF or bF for each F (only aF as of
  // `first`).
  auto check_listing = [&](const Result<std::vector<DirEntry>>& entries, bool as_of) {
    if (!entries.ok() || entries->size() != static_cast<size_t>(kFiles)) {
      return fail(std::string(as_of ? "as-of " : "") + "readdir: " +
                  (entries.ok() ? std::to_string(entries->size()) + " entries"
                                : entries.status().ToString()));
    }
    std::vector<bool> seen(kFiles);
    for (const DirEntry& e : *entries) {
      const int f = e.name[1] - '0';
      if ((e.name[0] != 'a' && (as_of || e.name[0] != 'b')) || seen[f]) {
        return fail("readdir listed " + e.name);
      }
      seen[f] = true;
    }
  };
  std::vector<std::unique_ptr<InvSession>> sessions;
  for (int r = 0; r < kReaders; ++r) {
    auto s = fs.NewSession();
    ASSERT_TRUE(s.ok());
    sessions.push_back(std::move(*s));
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      InvSession& s = *sessions[r];
      do {
        for (int f = 0; f < kFiles; ++f) {
          for (char prefix : {'a', 'b'}) {
            const std::string path = "/d/" + name(prefix, f);
            auto st = s.stat(path);
            if (st.ok() ? st->name != name(prefix, f) : !st.status().IsNotFound()) {
              return fail("stat " + path + ": " +
                          (st.ok() ? "named " + st->name : st.status().ToString()));
            }
            auto fd = s.p_open(path, OpenMode::kRead);
            if (fd.ok() ? !s.p_close(*fd).ok() : !fd.status().IsNotFound()) {
              return fail("p_open " + path + ": " + fd.status().ToString());
            }
          }
          auto then = s.stat("/d/" + name('a', f), first);
          if (!then.ok() || then->name != name('a', f)) {
            return fail("as-of stat " + name('a', f) + ": " +
                        (then.ok() ? "named '" + then->name + "'"
                                   : then.status().ToString()));
          }
        }
        check_listing(s.readdir("/d"), /*as_of=*/false);
        check_listing(s.readdir("/d", first), /*as_of=*/true);
        lookups.fetch_add(1);
      } while (!done.load() && failures.load() == 0);
    });
  }
  // Waits for a reader pass that begins after this call: each reader has at
  // most one pass under way, so the (kReaders + 1)th pass to end is one.
  auto await_fresh_pass = [&] {
    const uint64_t target = lookups.load() + kReaders + 1;
    while (lookups.load() < target && failures.load() == 0) {
      std::this_thread::yield();
    }
  };
  for (int round = 1; round <= kRounds && failures.load() == 0; ++round) {
    const char from = round % 2 == 1 ? 'a' : 'b';
    const char to = round % 2 == 1 ? 'b' : 'a';
    Status st = w.p_begin();
    for (int f = 0; f < kFiles && st.ok(); ++f) {
      st = w.rename("/d/" + name(from, f), "/d/" + name(to, f));
    }
    st = st.ok() ? w.p_commit() : st;
    if (st.ok()) {
      auto txn = (*db)->Begin();
      st = txn.ok() ? fs.Vacuum(*txn).status() : txn.status();
      if (st.ok()) {
        st = (*db)->Commit(*txn);
      }
    }
    if (!st.ok()) {
      fail("writer: " + st.ToString());
    }
    await_fresh_pass();
  }
  done.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(lookups.load(), 0u);
}

// 8 threads hammer one registry — a striped counter and a shared histogram —
// while a snapshotter concurrently reads everything. Totals must be exact
// (no lost updates) and every concurrent snapshot internally consistent.
// This is the TSan target for the metric cells; SpanStorm below is the one
// for the span ring.
TEST(MetricsStressTest, ConcurrentIncrementAndSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;

  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("stress.counter");
  Histogram* hist = reg.GetHistogram("stress.hist");

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    const uint64_t expected =
        static_cast<uint64_t>(kThreads) * kItersPerThread;
    while (!stop.load(std::memory_order_acquire)) {
      // Mid-run reads must never see torn or overshooting values.
      EXPECT_LE(counter->Value(), expected);
      EXPECT_LE(hist->Count(), expected);
      (void)reg.DumpText();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        counter->Add();
        hist->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(hist->Count(), expected);
}

// 8 threads run nested ScopedSpans (each thread its own trace) while a reader
// concurrently snapshots the span ring. Every published record must be
// internally consistent: a known name, a duration, and for child spans a
// parent from the same trace. This is the TSan target for the span layer.
TEST(MetricsStressTest, SpanStorm) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 4000;

  MetricsRegistry reg;
  SpanRing* spans = &reg.spans();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SpanRecord& r : spans->Snapshot()) {
        // Names are static literals; a torn read would show garbage here.
        ASSERT_NE(r.name, nullptr);
        const std::string_view name(r.name);
        EXPECT_TRUE(name == "storm.root" || name == "storm.child");
        EXPECT_NE(r.trace_id, 0u);
        EXPECT_NE(r.span_id, 0u);
        if (name == "storm.root") {
          EXPECT_EQ(r.parent_id, 0u);
        } else {
          EXPECT_NE(r.parent_id, 0u);
        }
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        ScopedSpan root(spans, "storm.root", static_cast<uint64_t>(t));
        {
          ScopedSpan child(spans, "storm.child", static_cast<uint64_t>(i));
          child.set_b(root.span_id());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  // Two spans per iteration, none lost from the total count.
  EXPECT_EQ(spans->TotalRecorded(),
            static_cast<uint64_t>(kThreads) * kItersPerThread * 2);
  // Cross-check parent links in the final quiescent snapshot: every child's
  // parent is the root span recorded in its b attribute.
  for (const SpanRecord& r : spans->Snapshot()) {
    if (std::string_view(r.name) == "storm.child") {
      EXPECT_EQ(r.parent_id, r.b);
    }
  }
}

// 8 open-loop load drivers, one per thread, hammer a single shared engine:
// every driver pumps the builtin tenant mix under its own namespace while
// all of them race on the lock manager, buffer pool, commit log, sim clock,
// sampler, and the shared per-tenant histograms. Deadlock victims abort and
// count as errors — what must hold under TSan is that no update is lost:
// the shared load.latency_us{tenant} histograms see exactly one observation
// per arrival executed by any driver.
TEST(LoadStormTest, EightConcurrentDriversShareOneEngine) {
  constexpr int kThreads = 8;

  auto world_or = InversionWorld::Create();
  ASSERT_TRUE(world_or.ok());
  InversionWorld& world = **world_or;

  std::vector<std::unique_ptr<LoadGen>> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    LoadGenOptions opt;
    opt.seed = 1000 + static_cast<uint64_t>(t);
    // Long enough that every driver schedules arrivals: builtin mean
    // inter-arrivals run 5-10s, and first arrivals get a stationary phase
    // offset in [0, mean) — a short horizon can miss a whole fleet.
    opt.seconds = 2.0;
    opt.root = "/storm" + std::to_string(t);
    drivers.push_back(std::make_unique<LoadGen>(&world.fs(), opt));
    // Setup serially: it runs DDL (pool files, the shared migration rule),
    // and concurrent redefinition of one rule would just deadlock-abort.
    // The storm under test is the op pumps, not setup.
    const Status setup = drivers.back()->Setup();
    ASSERT_TRUE(setup.ok()) << "driver " << t << ": " << setup.ToString();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (!drivers[t]->Run().ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  uint64_t total_ops = 0;
  for (const auto& d : drivers) {
    const LoadGenReport report = d->Report();
    EXPECT_GT(report.ops, 0u);
    total_ops += report.ops;
  }
  // The registry histograms are shared across drivers; their per-tenant
  // counts must sum to exactly the arrivals executed — no lost updates.
  uint64_t observed = 0;
  for (const TenantLoadStats& t : drivers[0]->Report().tenants) {
    observed +=
        world.db().metrics().GetHistogram("load.latency_us", t.tenant)->Count();
  }
  EXPECT_EQ(observed, total_ops);
}

// NetModel is shared by every client stub of an RPC fleet: its counters are
// relaxed atomics and SimClock::Advance is atomic, so concurrent charges must
// lose neither messages nor bytes nor simulated time.
TEST(LoadStormTest, ConcurrentNetModelChargesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 5000;
  constexpr uint64_t kBytes = 1024;

  SimClock clock;
  NetModel net(&clock, NetParams{});
  const SimMicros per_charge =
      NetParams{}.per_message_us + (kBytes * NetParams{}.per_kilobyte_us) / 1024;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        net.ChargeMessage(kBytes);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const uint64_t total = static_cast<uint64_t>(kThreads) * kChargesPerThread;
  EXPECT_EQ(net.total_messages(), total);
  EXPECT_EQ(net.total_bytes(), total * kBytes);
  EXPECT_EQ(clock.Peek(), per_charge * total) << "no lost clock advances";
}

// Concurrent corruption verdicts each apply their own kind. Threads write
// distinct blocks through one SwitchEntry while torn-write and bit-flip specs
// are armed at interleaved positions; every round must leave exactly one
// sector-mixed page per torn spec and one single-bit page per flip spec.
TEST(SwitchEntryStressTest, ConcurrentCorruptVerdictsKeepTheirKinds) {
  constexpr int kThreads = 4;
  constexpr uint32_t kBlocksPerThread = 16;
  constexpr uint32_t kBlocks = kThreads * kBlocksPerThread;
  constexpr int kTorn = 5;
  constexpr int kFlips = 7;
  constexpr int kRounds = 20;
  constexpr Oid kRel = 9000;
  constexpr size_t kSector = 512;
  const std::vector<std::byte> old_page(kPageSize, std::byte{0x55});
  const std::vector<std::byte> new_page(kPageSize, std::byte{0xAA});

  MemBlockStore store;
  SimClock clock;
  MetricsRegistry metrics;
  FaultInjector injector(/*seed=*/17);
  SwitchEntry dev(std::make_unique<NvramDevice>(&store), &clock, &metrics,
                  &injector);
  ASSERT_TRUE(dev.CreateRelation(kRel).ok());

  for (int round = 0; round < kRounds; ++round) {
    injector.Disarm();
    for (uint32_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(dev.WriteBlock(kRel, b, old_page).ok());
    }
    // Alternate the kinds over the first write positions (torn ones first
    // while both remain), so neighbouring verdicts are of different kinds.
    std::vector<FaultSpec> specs;
    for (int torn = 0, flips = 0; torn + flips < kTorn + kFlips;) {
      const bool take_torn =
          torn < kTorn && (flips == kFlips || (torn + flips) % 2 == 0);
      specs.push_back({take_torn ? FaultSpec::Kind::kTornWrite
                                 : FaultSpec::Kind::kBitFlip,
                       FaultSpec::Op::kWrite,
                       static_cast<uint64_t>(torn + flips + 1)});
      (take_torn ? torn : flips) += 1;
    }
    const uint64_t fired_before = injector.faults_fired();
    injector.Arm(specs);

    std::barrier start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (uint32_t i = 0; i < kBlocksPerThread; ++i) {
          EXPECT_TRUE(dev.WriteBlock(kRel, t * kBlocksPerThread + i, new_page)
                          .ok());
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(injector.faults_fired() - fired_before,
              static_cast<uint64_t>(kTorn + kFlips));

    int torn = 0;
    int flipped = 0;
    int clean = 0;
    std::vector<std::byte> out(kPageSize);
    for (uint32_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(dev.ReadBlock(kRel, b, out).ok());
      int flipped_bits = 0;
      int old_sectors = 0;
      bool sectors_whole = true;
      for (size_t off = 0; off < kPageSize; off += kSector) {
        const bool all_old =
            std::memcmp(out.data() + off, old_page.data(), kSector) == 0;
        const bool all_new =
            std::memcmp(out.data() + off, new_page.data(), kSector) == 0;
        old_sectors += all_old ? 1 : 0;
        sectors_whole = sectors_whole && (all_old || all_new);
      }
      for (size_t i = 0; i < kPageSize; ++i) {
        flipped_bits += __builtin_popcount(
            static_cast<unsigned>(out[i] ^ new_page[i]));
      }
      if (flipped_bits == 0) {
        ++clean;
      } else if (flipped_bits == 1) {
        ++flipped;
      } else {
        EXPECT_TRUE(sectors_whole) << "block " << b << " round " << round;
        EXPECT_GT(old_sectors, 0);
        EXPECT_LT(old_sectors, static_cast<int>(kPageSize / kSector));
        ++torn;
      }
    }
    EXPECT_EQ(torn, kTorn) << "round " << round;
    EXPECT_EQ(flipped, kFlips) << "round " << round;
    EXPECT_EQ(clean, static_cast<int>(kBlocks) - kTorn - kFlips);
  }
}

}  // namespace
}  // namespace invfs
