// Property tests for the Inversion file layer: random operation sequences
// checked against an in-memory reference model, plus multi-session and
// history-interaction properties.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/inversion/inv_fs.h"
#include "src/util/random.h"
#include "src/vacuum/vacuum.h"

namespace invfs {
namespace {

class InvPropertyBase : public ::testing::Test {
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

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

// Random writes/seeks/reads against a byte-vector reference model. Sweeps
// coalescing x compression.
struct FilePropertyParam {
  bool coalesce;
  bool compressed;
  uint64_t seed;
};

class FileProperty : public ::testing::TestWithParam<FilePropertyParam> {};

TEST_P(FileProperty, MatchesReferenceModel) {
  const FilePropertyParam param = GetParam();
  StorageEnv env;
  auto db = Database::Open(&env);
  ASSERT_TRUE(db.ok());
  InvOptions options;
  options.coalesce_writes = param.coalesce;
  InversionFs fs(db->get(), options);
  ASSERT_TRUE(fs.Mount().ok());
  auto session_or = fs.NewSession();
  ASSERT_TRUE(session_or.ok());
  InvSession& s = **session_or;

  CreatOptions creat;
  creat.compressed = param.compressed;
  ASSERT_TRUE(s.p_begin().ok());
  auto fd = s.p_creat("/model.bin", creat);
  ASSERT_TRUE(fd.ok());

  std::vector<std::byte> reference;  // the model
  Rng rng(param.seed);
  constexpr int64_t kMaxSize = 3 * kInvChunkSize + 500;

  for (int step = 0; step < 120; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 5) {
      // Random write at a random offset.
      const int64_t offset = static_cast<int64_t>(rng.Uniform(kMaxSize));
      const size_t len = 1 + rng.Uniform(5000);
      std::vector<std::byte> data(len);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.Uniform(256));
      }
      ASSERT_TRUE(s.p_lseek(*fd, offset, Whence::kSet).ok());
      auto n = s.p_write(*fd, data);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (reference.size() < offset + len) {
        reference.resize(offset + len);
      }
      std::copy(data.begin(), data.end(),
                reference.begin() + static_cast<ptrdiff_t>(offset));
    } else if (action < 8) {
      // Random read, compare with the model.
      if (reference.empty()) {
        continue;
      }
      const int64_t offset = static_cast<int64_t>(rng.Uniform(reference.size()));
      const size_t len = 1 + rng.Uniform(6000);
      std::vector<std::byte> buf(len);
      ASSERT_TRUE(s.p_lseek(*fd, offset, Whence::kSet).ok());
      auto n = s.p_read(*fd, buf);
      ASSERT_TRUE(n.ok());
      const int64_t expect =
          std::min<int64_t>(static_cast<int64_t>(len),
                            static_cast<int64_t>(reference.size()) - offset);
      ASSERT_EQ(*n, expect) << "step " << step;
      EXPECT_EQ(std::memcmp(buf.data(), reference.data() + offset,
                            static_cast<size_t>(expect)),
                0)
          << "step " << step << " offset " << offset;
    } else if (action == 8) {
      // Commit and reopen a transaction mid-stream.
      ASSERT_TRUE(s.p_commit().ok());
      ASSERT_TRUE(s.p_begin().ok());
    } else {
      // fstat size agrees with the model.
      auto st = s.p_fstat(*fd);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(st->size, static_cast<int64_t>(reference.size())) << "step " << step;
    }
  }
  // Final full-content comparison after commit + cache flush (cold read).
  ASSERT_TRUE(s.p_close(*fd).ok());
  ASSERT_TRUE(s.p_commit().ok());
  ASSERT_TRUE((*db)->FlushCaches().ok());
  auto rfd = s.p_open("/model.bin", OpenMode::kRead);
  ASSERT_TRUE(rfd.ok());
  std::vector<std::byte> all(reference.size());
  int64_t done = 0;
  while (done < static_cast<int64_t>(all.size())) {
    auto n = s.p_read(*rfd, std::span(all).subspan(static_cast<size_t>(done)));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0);
    done += *n;
  }
  EXPECT_EQ(all, reference);
  ASSERT_TRUE(s.p_close(*rfd).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, FileProperty,
    ::testing::Values(FilePropertyParam{true, false, 1},
                      FilePropertyParam{true, false, 2},
                      FilePropertyParam{false, false, 3},
                      FilePropertyParam{true, true, 4},
                      FilePropertyParam{false, true, 5},
                      FilePropertyParam{true, true, 6}),
    [](const ::testing::TestParamInfo<FilePropertyParam>& param_info) {
      const FilePropertyParam& p = param_info.param;
      return std::string(p.coalesce ? "coalesce" : "direct") +
             (p.compressed ? "_compressed" : "_raw") + "_seed" + std::to_string(p.seed);
    });

// ---------------------------------------------- history / vacuum interplay

TEST_F(InvPropertyBase, EveryCommittedVersionRemainsReadable) {
  // Write N committed versions, each remembered with its timestamp; all must
  // remain readable, including after a vacuum pass (archive union).
  std::vector<std::pair<Timestamp, std::string>> versions;
  for (int v = 0; v < 8; ++v) {
    ASSERT_TRUE(s_->p_begin().ok());
    Result<int> fd = v == 0 ? s_->p_creat("/versioned.txt")
                            : s_->p_open("/versioned.txt", OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    std::string body = "version " + std::to_string(v) + std::string(v * 100, '.');
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(body.data(), body.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
    versions.emplace_back(db_->Now(), std::move(body));
  }

  auto check_all = [&]() {
    for (const auto& [t, body] : versions) {
      auto fd = s_->p_open("/versioned.txt", OpenMode::kRead, t);
      ASSERT_TRUE(fd.ok());
      std::vector<char> buf(body.size() + 100);
      auto n = s_->p_read(*fd, std::as_writable_bytes(std::span(buf)));
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::string(buf.data(), static_cast<size_t>(*n)), body)
          << "as of " << t;
      ASSERT_TRUE(s_->p_close(*fd).ok());
    }
  };
  check_all();

  // Vacuum archives the dead versions; history must still be intact.
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto stats = fs_->Vacuum(*txn, /*keep_history=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_GT(stats->archived, 0u);
  check_all();
}

TEST_F(InvPropertyBase, NoHistoryFilesLoseTheirPastOnVacuum) {
  CreatOptions creat;
  creat.keep_history = false;
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/scratch.dat", creat);
  ASSERT_TRUE(fd.ok());
  const std::string v1 = "v1";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(v1.data(), 2))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  const Timestamp t1 = db_->Now();

  ASSERT_TRUE(s_->p_begin().ok());
  fd = s_->p_open("/scratch.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string v2 = "v2";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(v2.data(), 2))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());

  auto txn = db_->Begin();
  auto stats = fs_->Vacuum(*txn, true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_GT(stats->discarded, 0u) << "no-history file versions are discarded";

  // The old version is really gone: the historical read sees nothing.
  auto old_fd = s_->p_open("/scratch.dat", OpenMode::kRead, t1);
  ASSERT_TRUE(old_fd.ok());
  std::vector<std::byte> buf(4);
  auto n = s_->p_read(*old_fd, buf);
  ASSERT_TRUE(n.ok());
  if (*n == 2) {
    EXPECT_NE(std::memcmp(buf.data(), "v1", 2), 0);
  }
  ASSERT_TRUE(s_->p_close(*old_fd).ok());
}

// ---------------------------------------------------- sessions and locking

TEST_F(InvPropertyBase, TwoSessionsIsolatedUntilCommit) {
  auto s2_or = fs_->NewSession();
  ASSERT_TRUE(s2_or.ok());
  InvSession& s2 = **s2_or;

  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/iso.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "uncommitted";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  // Session 2 cannot see the file yet.
  EXPECT_TRUE(s2.stat("/iso.txt").status().IsNotFound());
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_TRUE(s2.stat("/iso.txt").ok());
}

TEST_F(InvPropertyBase, BadDescriptorsAndModes) {
  EXPECT_FALSE(s_->p_read(42, std::span<std::byte>()).ok());
  EXPECT_FALSE(s_->p_close(42).ok());
  EXPECT_FALSE(s_->p_lseek(42, 0, Whence::kSet).ok());
  // Read-only fd rejects writes.
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/ro.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  auto ro = s_->p_open("/ro.txt", OpenMode::kRead);
  ASSERT_TRUE(ro.ok());
  std::vector<std::byte> b{std::byte{1}};
  EXPECT_EQ(s_->p_write(*ro, b).status().code(), ErrorCode::kReadOnly);
  // Negative and absurd seeks rejected.
  EXPECT_FALSE(s_->p_lseek(*ro, -1, Whence::kSet).ok());
  EXPECT_FALSE(s_->p_lseek(*ro, kInvMaxFileSize + 1, Whence::kSet).ok());
  ASSERT_TRUE(s_->p_close(*ro).ok());
}

TEST_F(InvPropertyBase, PathEdgeCases) {
  EXPECT_FALSE(s_->stat("relative/path").ok());
  EXPECT_FALSE(s_->p_creat("/").ok());
  EXPECT_FALSE(s_->p_creat("/missing_dir/file").ok());
  ASSERT_TRUE(s_->mkdir("/d").ok());
  EXPECT_FALSE(s_->mkdir("/d").ok());
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/d/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_FALSE(s_->p_creat("/d/f").ok()) << "duplicate names rejected";
  EXPECT_FALSE(s_->p_creat("/d/f/g").ok()) << "files are not directories";
  EXPECT_FALSE(s_->unlink("/d").ok()) << "non-empty directory";
  ASSERT_TRUE(s_->unlink("/d/f").ok());
  EXPECT_TRUE(s_->unlink("/d").ok());
}

TEST_F(InvPropertyBase, NestedDirectoriesAndDeepPaths) {
  std::string path;
  for (int depth = 0; depth < 8; ++depth) {
    path += "/dir" + std::to_string(depth);
    ASSERT_TRUE(s_->mkdir(path).ok()) << path;
  }
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat(path + "/leaf.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  auto st = s_->stat(path + "/leaf.txt");
  ASSERT_TRUE(st.ok());
  // PathOf reconstructs the full pathname (the paper's pathname construction
  // routine over naming entries).
  const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto full = fs_->PathOf(st->oid, snap);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, path + "/leaf.txt");
}

TEST_F(InvPropertyBase, HistoricalReaddirShowsThePast) {
  ASSERT_TRUE(s_->mkdir("/proj").ok());
  for (const char* name : {"a.c", "b.c", "c.c"}) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(std::string("/proj/") + name);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }
  const Timestamp full_house = db_->Now();
  ASSERT_TRUE(s_->unlink("/proj/b.c").ok());
  auto now_entries = s_->readdir("/proj");
  ASSERT_TRUE(now_entries.ok());
  EXPECT_EQ(now_entries->size(), 2u);
  auto then_entries = s_->readdir("/proj", full_house);
  ASSERT_TRUE(then_entries.ok());
  EXPECT_EQ(then_entries->size(), 3u);
}

TEST_F(InvPropertyBase, LargeFileOffsetsWork) {
  // A write far past 4 GB: Inversion's 64-bit offsets ("the practical upper
  // limit on file sizes in the current UNIX Fast File System is 4 GBytes").
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/huge.dat");
  ASSERT_TRUE(fd.ok());
  const int64_t far = 6'000'000'000;  // 6 GB
  ASSERT_TRUE(s_->p_lseek(*fd, far, Whence::kSet).ok());
  const std::string tail = "end of a very large file";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(tail.data(), tail.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  auto st = s_->stat("/huge.dat");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, far + static_cast<int64_t>(tail.size()));
  // Sparse: reading the tail region returns the data.
  auto rfd = s_->p_open("/huge.dat", OpenMode::kRead);
  ASSERT_TRUE(rfd.ok());
  ASSERT_TRUE(s_->p_lseek(*rfd, far, Whence::kSet).ok());
  std::vector<char> buf(tail.size());
  auto n = s_->p_read(*rfd, std::as_writable_bytes(std::span(buf)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf.data(), buf.size()), tail);
  ASSERT_TRUE(s_->p_close(*rfd).ok());
}

TEST_F(InvPropertyBase, AutoTxnOpsAreIndividuallyDurable) {
  // Without p_begin, each op runs in its own transaction (and survives a
  // crash immediately after).
  auto fd = s_->p_creat("/auto.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "auto-committed";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());

  s_.reset();
  fs_.reset();
  db_->Crash();
  db_.reset();
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  fs_ = std::make_unique<InversionFs>(db_.get());
  ASSERT_TRUE(fs_->Mount().ok());
  auto session = fs_->NewSession();
  ASSERT_TRUE(session.ok());
  s_ = std::move(*session);
  auto st = s_->stat("/auto.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, static_cast<int64_t>(data.size()));
}

}  // namespace
}  // namespace invfs
