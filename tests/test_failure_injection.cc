// Failure injection: media corruption surfacing through the full stack, and
// conflicting sessions under 2PL.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/buffer/buffer_pool.h"
#include "src/check/checker.h"
#include "src/fault/switch_entry.h"
#include "src/inversion/inv_fs.h"

namespace invfs {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  void MakeFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Post-condition for tests that did not deliberately corrupt the image:
  // whatever the failure scenario did, the stable image must verify clean.
  void ExpectImageClean() {
    ASSERT_TRUE(db_->FlushCaches().ok());
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->ToString();
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_F(FailureTest, MediaCorruptionDetectedOnRead) {
  MakeFile("/victim.dat", std::string(1000, 'v'));
  ASSERT_TRUE(db_->FlushCaches().ok());

  // Corrupt a byte in the middle of every block of the chunk table on stable
  // storage — the page self-identification check must catch it.
  const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto oid = fs_->ResolvePath("/victim.dat", snap);
  ASSERT_TRUE(oid.ok());
  auto* store = static_cast<MemBlockStore*>(env_.disk_store.get());
  auto table = db_->catalog().GetTable("inv" + std::to_string(*oid));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(store->CorruptByte((*table)->oid, 0, 14).ok());  // self-ident field

  auto fd = s_->p_open("/victim.dat", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(100);
  auto n = s_->p_read(*fd, buf);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kCorruption);
}

TEST_F(FailureTest, ChunkSelfIdentMismatchDetected) {
  // Corrupt the *record-level* self identifier (the reserved field the paper
  // describes), not the page header: flip bytes later in the page.
  MakeFile("/victim2.dat", std::string(1000, 'w'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto oid = fs_->ResolvePath("/victim2.dat", snap);
  ASSERT_TRUE(oid.ok());
  auto table = db_->catalog().GetTable("inv" + std::to_string(*oid));
  ASSERT_TRUE(table.ok());
  auto* store = static_cast<MemBlockStore*>(env_.disk_store.get());
  // The tuple sits at the end of the page; its selfid int8 lives after the
  // chunkno and the 1004-byte data column. Flip a byte well inside the tuple
  // body region. Find it by trying offsets until the read fails.
  bool detected = false;
  for (uint32_t off = kPageSize - 40; off > kPageSize - 1100 && !detected; --off) {
    ASSERT_TRUE(store->CorruptByte((*table)->oid, 0, off).ok());
    auto fd = s_->p_open("/victim2.dat", OpenMode::kRead);
    ASSERT_TRUE(fd.ok());
    std::vector<std::byte> buf(1000);
    auto n = s_->p_read(*fd, buf);
    if (!n.ok()) {
      detected = true;
      EXPECT_EQ(n.status().code(), ErrorCode::kCorruption);
    } else if (std::memcmp(buf.data(), std::string(1000, 'w').data(), 1000) != 0) {
      // Flipped a data byte: reads succeed with wrong content — that is the
      // one corruption class self-identification cannot catch (the paper
      // reserves space for block tags, not content checksums). Restore it.
      ASSERT_TRUE(store->CorruptByte((*table)->oid, 0, off).ok());
    } else {
      ASSERT_TRUE(store->CorruptByte((*table)->oid, 0, off).ok());  // restore
    }
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(db_->FlushCaches().ok());
  }
  EXPECT_TRUE(detected) << "corrupting metadata bytes must eventually be caught";
}

TEST_F(FailureTest, TwoSessionsWriteSameFileSerializeUnderLocks) {
  MakeFile("/contended.dat", "seed");
  auto s2_or = fs_->NewSession();
  ASSERT_TRUE(s2_or.ok());
  InvSession& s2 = **s2_or;

  ASSERT_TRUE(s_->p_begin().ok());
  auto fd1 = s_->p_open("/contended.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd1.ok());
  const std::string a = "AAAA";
  ASSERT_TRUE(s_->p_write(*fd1, std::as_bytes(std::span(a.data(), a.size()))).ok());

  // Session 2 tries to write the same file: must block until s1 commits.
  std::atomic<bool> s2_done{false};
  std::thread t([&] {
    ASSERT_TRUE(s2.p_begin().ok());
    auto fd2 = s2.p_open("/contended.dat", OpenMode::kWrite);
    ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
    const std::string b = "BB";
    ASSERT_TRUE(s2.p_write(*fd2, std::as_bytes(std::span(b.data(), b.size()))).ok());
    ASSERT_TRUE(s2.p_close(*fd2).ok());
    ASSERT_TRUE(s2.p_commit().ok());
    s2_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(s2_done) << "second writer must wait for the X lock";
  ASSERT_TRUE(s_->p_close(*fd1).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  t.join();
  EXPECT_TRUE(s2_done);

  // s2 committed last: its bytes overlay s1's.
  auto fd = s_->p_open("/contended.dat", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  char buf[4];
  auto n = s_->p_read(*fd, std::as_writable_bytes(std::span(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, 4), "BBAA");
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ExpectImageClean();
}

TEST_F(FailureTest, DeadlockVictimCanRetry) {
  MakeFile("/a.dat", "a");
  MakeFile("/b.dat", "b");
  auto s2_or = fs_->NewSession();
  ASSERT_TRUE(s2_or.ok());
  InvSession& s2 = **s2_or;

  // s1 locks a, s2 locks b, then each goes for the other: one must get a
  // deadlock status rather than hang.
  ASSERT_TRUE(s_->p_begin().ok());
  ASSERT_TRUE(s2.p_begin().ok());
  auto fd_a1 = s_->p_open("/a.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd_a1.ok());
  auto fd_b2 = s2.p_open("/b.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd_b2.ok());

  std::atomic<bool> s1_got_b{false};
  std::thread t([&] {
    auto fd_b1 = s_->p_open("/b.dat", OpenMode::kWrite);
    s1_got_b = fd_b1.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto fd_a2 = s2.p_open("/a.dat", OpenMode::kWrite);
  EXPECT_FALSE(fd_a2.ok());
  EXPECT_TRUE(fd_a2.status().IsDeadlock()) << fd_a2.status().ToString();
  // The victim's transaction was aborted by the deadlock handler; a fresh
  // attempt succeeds once s1 finishes.
  t.join();
  EXPECT_TRUE(s1_got_b);
  ASSERT_TRUE(s_->p_commit().ok());
  auto retry = s2.p_open("/a.dat", OpenMode::kWrite);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  // After the deadlock abort the session fell back to per-op transactions, so
  // the close commits on its own.
  ASSERT_TRUE(s2.p_close(*retry).ok());
  ExpectImageClean();
}

// ---- lying-disk scenarios: torn pages and bit flips -------------------------

// Same stack as FailureTest, but every device is wrapped in a FaultDevice so
// the media can lie: report a successful write while persisting damage.
class CorruptingDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.fault_injector = &injector_;
    auto db = Database::Open(&env_, opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  void MakeFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Rewrite `path` in place, but the write-back of its chunk-table page goes
  // through the armed fault: the device reports success while persisting
  // damage. The transaction then commits normally — the caller holds an ack
  // for data the media silently mangled.
  void CommitThroughLyingDisk(const std::string& path, const std::string& data,
                              FaultSpec::Kind kind) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
    auto oid = fs_->ResolvePath(path, snap);
    ASSERT_TRUE(oid.ok());
    auto table = db_->catalog().GetTable("inv" + std::to_string(*oid));
    ASSERT_TRUE(table.ok());
    injector_.ArmOne({kind, FaultSpec::Op::kWrite, 1});
    ASSERT_TRUE(db_->buffers_ptr()->FlushRelation((*table)->oid).ok())
        << "the lying disk must report success";
    EXPECT_EQ(injector_.faults_fired(), 1u);
    injector_.Disarm();
    ASSERT_TRUE(s_->p_commit().ok());
    // Drop the clean cached copy so the next read goes back to the media.
    ASSERT_TRUE(db_->FlushCaches().ok());
  }

  // The damaged page must be caught by page verification on the read path,
  // and the offline checker must flag it — with every violation anchored to
  // (or fallout of) the damaged page, so `invfs_check --tolerate-quarantined`
  // accepts the rest of the image.
  void ExpectDamageDetected(const std::string& path) {
    auto fd = s_->p_open(path, OpenMode::kRead);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::vector<std::byte> buf(100);
    auto n = s_->p_read(*fd, buf);
    ASSERT_FALSE(n.ok()) << "damaged page served as good data";
    EXPECT_EQ(n.status().code(), ErrorCode::kCorruption) << n.status().ToString();

    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->ok()) << "checker must see the damage";
    EXPECT_TRUE(report->OnlyQuarantined()) << report->ToString();
  }

  StorageEnv env_;
  FaultInjector injector_;  // outlives db_'s FaultDevices (declared first)
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_F(CorruptingDiskTest, TornPageWriteDetectedAndQuarantined) {
  MakeFile("/torn.dat", std::string(2000, 't'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  CommitThroughLyingDisk("/torn.dat", std::string(2000, 'T'),
                         FaultSpec::Kind::kTornWrite);
  ExpectDamageDetected("/torn.dat");
}

TEST_F(CorruptingDiskTest, BitFlipDetectedAndQuarantined) {
  MakeFile("/flip.dat", std::string(2000, 'f'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  CommitThroughLyingDisk("/flip.dat", std::string(2000, 'F'),
                         FaultSpec::Kind::kBitFlip);
  ExpectDamageDetected("/flip.dat");
}

}  // namespace
}  // namespace invfs
