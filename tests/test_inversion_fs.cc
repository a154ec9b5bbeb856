// Inversion file system: files, directories, transactions, time travel,
// undelete, compression, queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/inversion/inv_fs.h"
#include "src/util/bytes.h"
#include "src/util/lzss.h"
#include "src/util/random.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

class InversionFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  // Write `data` to a new file at `path` in one transaction.
  void WriteFile(const std::string& path, const std::string& data,
                 CreatOptions options = {}) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path, options);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto n = s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size())));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, static_cast<int64_t>(data.size()));
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  std::string ReadFile(const std::string& path, Timestamp as_of = kTimestampNow) {
    auto fd = s_->p_open(path, OpenMode::kRead, as_of);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) {
      return {};
    }
    std::string out;
    char buf[4096];
    for (;;) {
      auto n = s_->p_read(*fd, std::as_writable_bytes(std::span(buf)));
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || *n == 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(*n));
    }
    EXPECT_TRUE(s_->p_close(*fd).ok());
    return out;
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_F(InversionFsTest, WriteReadRoundtrip) {
  WriteFile("/hello.txt", "hello, inversion\n");
  EXPECT_EQ(ReadFile("/hello.txt"), "hello, inversion\n");
}

TEST_F(InversionFsTest, MultiChunkFile) {
  std::string big(3 * kInvChunkSize + 517, 'x');
  Rng rng(7);
  for (auto& c : big) {
    c = static_cast<char>('a' + rng.Uniform(26));
  }
  WriteFile("/big.bin", big);
  EXPECT_EQ(ReadFile("/big.bin"), big);
  auto st = s_->stat("/big.bin");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, static_cast<int64_t>(big.size()));
}

TEST_F(InversionFsTest, DirectoriesAndReaddir) {
  ASSERT_TRUE(s_->mkdir("/etc").ok());
  WriteFile("/etc/passwd", "root:0:0\n");
  WriteFile("/etc/group", "wheel:0\n");
  auto entries = s_->readdir("/etc");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "group");
  EXPECT_EQ((*entries)[1].name, "passwd");
  // Table 1 of the paper: resolving /etc/passwd walks naming entries.
  auto st = s_->stat("/etc/passwd");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_directory);
  EXPECT_EQ(st->size, 9);
}

TEST_F(InversionFsTest, AbortRollsBackFileCreation) {
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/doomed.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "this never happened";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_abort().ok());
  EXPECT_TRUE(s_->stat("/doomed.txt").status().IsNotFound());
}

TEST_F(InversionFsTest, TransactionalMultiFileCheckin) {
  // The paper's motivating example: several source files checked in together.
  WriteFile("/a.c", "int a;\n");
  WriteFile("/b.c", "int b;\n");
  ASSERT_TRUE(s_->p_begin().ok());
  for (const char* path : {"/a.c", "/b.c"}) {
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(s_->p_lseek(*fd, 0, Whence::kEnd).ok());
    const std::string patch = "/* patched */\n";
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(patch.data(), patch.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
  }
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_EQ(ReadFile("/a.c"), "int a;\n/* patched */\n");
  EXPECT_EQ(ReadFile("/b.c"), "int b;\n/* patched */\n");
}

TEST_F(InversionFsTest, TimeTravelReadsOldContents) {
  WriteFile("/notes.txt", "version one");
  const Timestamp t1 = db_->Now();

  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_open("/notes.txt", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string v2 = "version TWO";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(v2.data(), v2.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());

  EXPECT_EQ(ReadFile("/notes.txt"), "version TWO");
  EXPECT_EQ(ReadFile("/notes.txt", t1), "version one");

  // Historical opens refuse writes.
  auto ro = s_->p_open("/notes.txt", OpenMode::kWrite, t1);
  EXPECT_EQ(ro.status().code(), ErrorCode::kReadOnly);
}

TEST_F(InversionFsTest, UndeleteViaTimeTravel) {
  WriteFile("/precious.dat", "do not lose me");
  const Timestamp before_rm = db_->Now();
  ASSERT_TRUE(s_->unlink("/precious.dat").ok());
  EXPECT_TRUE(s_->stat("/precious.dat").status().IsNotFound());
  // "it allows users to undelete files removed accidentally"
  EXPECT_EQ(ReadFile("/precious.dat", before_rm), "do not lose me");
  auto old_stat = s_->stat("/precious.dat", before_rm);
  ASSERT_TRUE(old_stat.ok());
  EXPECT_EQ(old_stat->size, 14);
}

TEST_F(InversionFsTest, CompressedFileRoundtripAndRandomAccess) {
  CreatOptions options;
  options.compressed = true;
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  WriteFile("/compressed.txt", text, options);
  EXPECT_EQ(ReadFile("/compressed.txt"), text);
  // Random access into the middle decompresses only the covering chunk.
  auto fd = s_->p_open("/compressed.txt", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(s_->p_lseek(*fd, 20000, Whence::kSet).ok());
  char buf[45];
  auto n = s_->p_read(*fd, std::as_writable_bytes(std::span(buf)));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 45);
  EXPECT_EQ(std::string(buf, 45), text.substr(20000, 45));
  ASSERT_TRUE(s_->p_close(*fd).ok());
  // And it actually compressed: the chunk table stores less than the raw.
  auto st = s_->stat("/compressed.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->compressed);
}

TEST_F(InversionFsTest, SparseFileReadsZeros) {
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/sparse.bin");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(s_->p_lseek(*fd, 5 * kInvChunkSize, Whence::kSet).ok());
  const std::string tail = "tail";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(tail.data(), tail.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  ASSERT_TRUE(s_->p_commit().ok());
  std::string contents = ReadFile("/sparse.bin");
  ASSERT_EQ(contents.size(), 5 * kInvChunkSize + 4);
  EXPECT_EQ(contents.substr(0, 10), std::string(10, '\0'));
  EXPECT_EQ(contents.substr(5 * kInvChunkSize), "tail");
}

TEST_F(InversionFsTest, RenameMovesFile) {
  WriteFile("/old_name.txt", "contents");
  ASSERT_TRUE(s_->mkdir("/subdir").ok());
  ASSERT_TRUE(s_->rename("/old_name.txt", "/subdir/new_name.txt").ok());
  EXPECT_TRUE(s_->stat("/old_name.txt").status().IsNotFound());
  EXPECT_EQ(ReadFile("/subdir/new_name.txt"), "contents");
}

TEST_F(InversionFsTest, PostquelQueryOverMetadata) {
  WriteFile("/doc1.txt", "RISC processors are fast\nand simple\n");
  WriteFile("/doc2.txt", "CISC machines differ\n");
  // The paper's keyword query, verbatim shape.
  auto rs = s_->Query(
      "retrieve (n.filename) from n in naming where \"RISC\" in keywords(n.file)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsText(), "doc1.txt");

  // linecount function from Table 2.
  auto lc = s_->Query(
      "retrieve (n.filename, lines = linecount(n.file)) from n in naming "
      "where n.filename = \"doc1.txt\"");
  ASSERT_TRUE(lc.ok()) << lc.status().ToString();
  ASSERT_EQ(lc->rows.size(), 1u);
  EXPECT_EQ(lc->rows[0][1].AsInt4(), 2);
}

TEST_F(InversionFsTest, QueryTimeTravelBracket) {
  WriteFile("/ephemeral.txt", "x");
  const Timestamp before = db_->Now();
  ASSERT_TRUE(s_->unlink("/ephemeral.txt").ok());
  auto now_rs = s_->Query(
      "retrieve (n.filename) from n in naming where n.filename = \"ephemeral.txt\"");
  ASSERT_TRUE(now_rs.ok());
  EXPECT_TRUE(now_rs->rows.empty());
  auto then_rs = s_->Query("retrieve (n.filename) from n in naming[" +
                           std::to_string(before) +
                           "] where n.filename = \"ephemeral.txt\"");
  ASSERT_TRUE(then_rs.ok()) << then_rs.status().ToString();
  EXPECT_EQ(then_rs->rows.size(), 1u);
}

TEST_F(InversionFsTest, CrashRecoveryPreservesCommittedFiles) {
  WriteFile("/durable.txt", "committed data");
  // An in-flight transaction dies with the crash.
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/inflight.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "never committed";
  ASSERT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(db_->buffers().FlushAll().ok());

  s_.reset();
  fs_.reset();
  db_->Crash();
  db_.reset();

  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  fs_ = std::make_unique<InversionFs>(db_.get());
  ASSERT_TRUE(fs_->Mount().ok());
  auto session = fs_->NewSession();
  ASSERT_TRUE(session.ok());
  s_ = std::move(*session);

  EXPECT_EQ(ReadFile("/durable.txt"), "committed data");
  EXPECT_TRUE(s_->stat("/inflight.txt").status().IsNotFound());
}

// Every index but naming(parent, name) has keys of one width, taken from its
// table's schema when the index is created and again when the catalog is
// loaded after a restart.
TEST_F(InversionFsTest, IndexKeyWidthsComeFromTheSchema) {
  WriteFile("/widths.txt", "chunked");
  auto widths = [&] {
    std::vector<std::pair<std::vector<size_t>, size_t>> out;
    auto st = s_->stat("/widths.txt");
    EXPECT_TRUE(st.ok());
    auto chunks = db_->catalog().GetTable("inv" + std::to_string(st->oid));
    EXPECT_TRUE(chunks.ok());
    for (const TableInfo* table : {fs_->naming(), fs_->fileatt(), *chunks}) {
      for (const IndexInfo* index : table->indexes) {
        out.emplace_back(index->key_columns, index->btree->key_width());
      }
    }
    return out;
  };
  using Widths = std::vector<std::pair<std::vector<size_t>, size_t>>;
  // naming (parent, name), naming (file), fileatt (file), inv<oid> (chunkno).
  const Widths want{{{1, 0}, 0}, {{2}, 4}, {{0}, 4}, {{0}, 4}};
  EXPECT_EQ(widths(), want);

  ASSERT_TRUE(db_->FlushCaches().ok());
  s_.reset();
  fs_.reset();
  db_.reset();
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::move(*db);
  fs_ = std::make_unique<InversionFs>(db_.get());
  ASSERT_TRUE(fs_->Mount().ok());
  auto session = fs_->NewSession();
  ASSERT_TRUE(session.ok());
  s_ = std::move(*session);
  EXPECT_EQ(widths(), want);
  EXPECT_EQ(ReadFile("/widths.txt"), "chunked");
}

TEST_F(InversionFsTest, FilesOnNvramAndJukeboxDevices) {
  CreatOptions nvram;
  nvram.device = kDeviceNvram;
  WriteFile("/fast.dat", "nvram data", nvram);
  EXPECT_EQ(ReadFile("/fast.dat"), "nvram data");

  CreatOptions juke;
  juke.device = kDeviceJukebox;
  WriteFile("/archive.dat", "optical data", juke);
  EXPECT_EQ(ReadFile("/archive.dat"), "optical data");

  auto st = s_->stat("/archive.dat");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->device, kDeviceJukebox);
}

// A crafted line pointer in a committed chunk's heap page: p_read reports
// corruption instead of copying bytes from outside the page into the buffer.
TEST_F(InversionFsTest, PReadRefusesACorruptChunkLinePointer) {
  WriteFile("/victim.bin", std::string(3000, 'v'));
  auto st = s_->stat("/victim.bin");
  ASSERT_TRUE(st.ok());
  auto table = db_->catalog().GetTable("inv" + std::to_string(st->oid));
  ASSERT_TRUE(table.ok());
  auto ref = db_->buffers().Pin((*table)->oid, 0);
  ASSERT_TRUE(ref.ok());
  std::byte* lp = ref->data() + kPageHeaderSize;  // slot 0: the chunk
  const uint16_t good_off = GetU16(lp);
  const uint16_t good_len = GetU16(lp + 2);
  for (auto [off, len] : {std::pair<uint16_t, uint16_t>{kPageSize - 100, 4000},
                          std::pair<uint16_t, uint16_t>{good_off, 9}}) {
    {
      WriterMutexLock latch(ref->Latch());
      PutU16(lp, off);
      PutU16(lp + 2, len);
    }
    auto fd = s_->p_open("/victim.bin", OpenMode::kRead);
    ASSERT_TRUE(fd.ok());
    std::vector<std::byte> buf(kInvChunkSize);
    EXPECT_EQ(s_->p_read(*fd, buf).status().code(), ErrorCode::kCorruption)
        << off << "+" << len;
    ASSERT_TRUE(s_->p_close(*fd).ok());
  }
  {
    WriterMutexLock latch(ref->Latch());
    PutU16(lp, good_off);
    PutU16(lp + 2, good_len);
  }
  ref->Release();
  EXPECT_EQ(ReadFile("/victim.bin"), std::string(3000, 'v'));
}

// A chunk whose selfid no longer names its (file, chunkno): p_read and the
// whole-file read behind the file functions both refuse it.
TEST_F(InversionFsTest, ReadsRefuseAChunkWithAForeignSelfId) {
  WriteFile("/victim.txt", "one\ntwo\nthree\n");
  auto st = s_->stat("/victim.txt");
  ASSERT_TRUE(st.ok());
  auto table = db_->catalog().GetTable("inv" + std::to_string(st->oid));
  ASSERT_TRUE(table.ok());
  auto ref = db_->buffers().Pin((*table)->oid, 0);
  ASSERT_TRUE(ref.ok());
  const std::byte* lp = ref->data() + kPageHeaderSize;  // slot 0: the chunk
  // selfid is the tuple's last column: rawlen is null and takes no bytes.
  std::byte* selfid = ref->data() + GetU16(lp) + GetU16(lp + 2) - 8;
  auto flip = [&] {
    WriterMutexLock latch(ref->Latch());
    selfid[0] ^= std::byte{0xFF};
  };
  const std::string linecount =
      "retrieve (linecount(n.file)) from n in naming where n.filename = \"victim.txt\"";
  flip();
  auto fd = s_->p_open("/victim.txt", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(s_->p_read(*fd, buf).status().code(), ErrorCode::kCorruption);
  ASSERT_TRUE(s_->p_close(*fd).ok());
  EXPECT_EQ(s_->Query(linecount).status().code(), ErrorCode::kCorruption);
  flip();
  ref->Release();
  auto rs = s_->Query(linecount);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt4(), 3);
}

// POSTQUEL can append namespace rows that leave columns null. The file
// system reports them as corruption, naming the file oid, and keeps serving.
TEST_F(InversionFsTest, NullColumnsInNamespaceRowsAreCorruption) {
  WriteFile("/real.txt", "real\n");
  const std::string root = std::to_string(fs_->root_oid());
  ASSERT_TRUE(s_->Query("append naming (filename = \"ghost2\", parentid = " + root +
                        ", file = 99999)")
                  .ok());
  ASSERT_TRUE(s_->Query("append fileatt (file = 99999)").ok());
  auto listed = s_->readdir("/");
  EXPECT_EQ(listed.status().code(), ErrorCode::kCorruption);
  auto st = s_->stat("/ghost2");
  EXPECT_EQ(st.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(st.status().message().find("99999"), std::string::npos)
      << st.status().ToString();
  EXPECT_EQ(s_->Query("retrieve (size(n.file)) from n in naming "
                      "where n.filename = \"ghost2\"")
                .status()
                .code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(ReadFile("/real.txt"), "real\n");
}

// The time travel of the next two tests: /f.txt holds two lines as of the
// returned time, then four, and is renamed to /new.txt.
class RenamedFileHistoryTest : public InversionFsTest {
 protected:
  Timestamp TwoLinesThenFourRenamed() {
    WriteFile("/f.txt", "a\nb\n");
    const Timestamp t1 = db_->Now();
    EXPECT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open("/f.txt", OpenMode::kWrite);
    EXPECT_TRUE(fd.ok());
    const std::string four = "a\nb\nc\nd\n";
    EXPECT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(four.data(), four.size()))).ok());
    EXPECT_TRUE(s_->p_close(*fd).ok());
    EXPECT_TRUE(s_->rename("/f.txt", "/new.txt").ok());
    EXPECT_TRUE(s_->p_commit().ok());
    return t1;
  }

  // Moves every replaced version (naming, fileatt and chunks) to the archives.
  void Vacuum() {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    auto stats = fs_->Vacuum(*txn);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->archived, 0u);
    ASSERT_TRUE(db_->Commit(*txn).ok());
  }
};

TEST_F(RenamedFileHistoryTest, HistoricalStatAndReaddirKeepTheOldName) {
  const Timestamp t1 = TwoLinesThenFourRenamed();
  for (bool vacuumed : {false, true}) {
    SCOPED_TRACE(vacuumed ? "after vacuum" : "before vacuum");
    if (vacuumed) {
      Vacuum();
    }
    auto st = s_->stat("/f.txt", t1);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_EQ(st->name, "f.txt");
    EXPECT_EQ(st->size, 4);
    auto entries = s_->readdir("/", t1);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "f.txt");
    EXPECT_EQ(ReadFile("/f.txt", t1), "a\nb\n");
    EXPECT_EQ(s_->stat("/new.txt")->name, "new.txt");
  }
}

// A file function reads its argument's file under the snapshot of the range
// variable the argument comes from, so `naming[t1]` sees the file as of t1.
TEST_F(RenamedFileHistoryTest, FileFunctionsReadUnderTheRangesTimeBracket) {
  const Timestamp t1 = TwoLinesThenFourRenamed();
  const std::string query =
      "retrieve (linecount(n.file), size(n.file), pathname(n.file)) from n in naming[" +
      std::to_string(t1) + "] where n.filename = \"f.txt\"";
  for (bool vacuumed : {false, true}) {
    SCOPED_TRACE(vacuumed ? "after vacuum" : "before vacuum");
    if (vacuumed) {
      Vacuum();
    }
    auto rs = s_->Query(query);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs->rows.size(), 1u);
    EXPECT_EQ(rs->rows[0][0].AsInt4(), 2);
    EXPECT_EQ(rs->rows[0][1].AsInt8(), 4);
    EXPECT_EQ(rs->rows[0][2].AsText(), "/f.txt");
  }
  // Without a bracket the same functions read the current file.
  auto now = s_->Query(
      "retrieve (linecount(n.file), pathname(n.file)) from n in naming "
      "where n.filename = \"new.txt\"");
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  ASSERT_EQ(now->rows.size(), 1u);
  EXPECT_EQ(now->rows[0][0].AsInt4(), 4);
  EXPECT_EQ(now->rows[0][1].AsText(), "/new.txt");
}

// The one-copy chunk read (p_read through VisitChunk, straight from the heap
// page) against a reference assembled with FetchRow (Heap::Visit plus
// DecodeTuple), which decodes whole rows: every chunk version visible under
// the snapshot, from the chunk heap and its archive. Parameter: whether the
// chunk index is maintained (false reads through the sequential-scan path).
class ChunkReadTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    auto db = Database::Open(&env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    InvOptions options;
    options.maintain_chunk_index = GetParam();
    fs_ = std::make_unique<InversionFs>(db_.get(), options);
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  // Write `data` at `offset` in one transaction; creates the file when
  // `options` is given. Returns the commit's time.
  Timestamp Write(const std::string& path, int64_t offset, const std::string& data,
                  std::optional<CreatOptions> options = std::nullopt) {
    EXPECT_TRUE(s_->p_begin().ok());
    auto fd = options.has_value() ? s_->p_creat(path, *options)
                                  : s_->p_open(path, OpenMode::kWrite);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    EXPECT_TRUE(s_->p_lseek(*fd, offset, Whence::kSet).ok());
    EXPECT_TRUE(s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    EXPECT_TRUE(s_->p_close(*fd).ok());
    EXPECT_TRUE(s_->p_commit().ok());
    return db_->Now();
  }

  // p_read in 3000-byte steps, so copies start at many offsets in a chunk.
  std::string Read(const std::string& path, Timestamp as_of) {
    auto fd = s_->p_open(path, OpenMode::kRead, as_of);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string out;
    char buf[3000];
    for (;;) {
      auto n = s_->p_read(*fd, std::as_writable_bytes(std::span(buf)));
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || *n == 0) {
        break;
      }
      out.append(buf, static_cast<size_t>(*n));
    }
    EXPECT_TRUE(s_->p_close(*fd).ok());
    return out;
  }

  std::string Reference(const std::string& path, Timestamp as_of) {
    auto st = s_->stat(path, as_of);
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    auto txn = db_->Begin(TxnMode::kReadOnly);
    EXPECT_TRUE(txn.ok());
    const Snapshot snap =
        as_of == kTimestampNow ? db_->ReadSnapshot(*txn) : db_->SnapshotAt(as_of);
    auto table = db_->catalog().GetTable("inv" + std::to_string(st->oid));
    EXPECT_TRUE(table.ok());
    std::vector<TableInfo*> tables{*table};
    if ((*table)->archive_oid != kInvalidOid) {
      tables.push_back(*db_->catalog().GetTableByOid((*table)->archive_oid));
    }
    std::string image(static_cast<size_t>(st->size), '\0');
    std::set<int32_t> chunks;
    for (TableInfo* t : tables) {
      auto all = HeapRows(*t->heap);
      EXPECT_TRUE(all.ok());
      if (!all.ok()) {
        continue;
      }
      for (const HeapRow& stored : *all) {
        auto row = FetchRow(*t->heap, snap, stored.tid);
        EXPECT_TRUE(row.ok()) << row.status().ToString();
        if (!row.ok() || !row->has_value()) {
          continue;
        }
        const Row& r = **row;
        const int32_t chunkno = r[0].AsInt4();
        EXPECT_TRUE(chunks.insert(chunkno).second) << "two visible versions of " << chunkno;
        Blob data = r[1].AsBytes();
        if (!r[3].is_null()) {
          auto raw = LzssDecompress(data, static_cast<size_t>(r[3].AsInt4()));
          EXPECT_TRUE(raw.ok());
          data = *raw;
        }
        const int64_t at = static_cast<int64_t>(chunkno) * kInvChunkSize;
        const int64_t n =
            std::min<int64_t>(static_cast<int64_t>(data.size()), st->size - at);
        if (n > 0) {
          std::memcpy(image.data() + at, data.data(), static_cast<size_t>(n));
        }
      }
    }
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return image;
  }

  // p_read, the FetchRow reference and the expected contents agree.
  void Check(const std::string& path, Timestamp as_of, const std::string& expected) {
    SCOPED_TRACE(path + (as_of == kTimestampNow ? " now" : " as of " + std::to_string(as_of)));
    const std::string read = Read(path, as_of);
    EXPECT_EQ(read.size(), expected.size());
    EXPECT_TRUE(read == expected);
    EXPECT_TRUE(Reference(path, as_of) == read);
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_P(ChunkReadTest, ReadsMatchTheHeapFetchReference) {
  Rng rng(21);
  auto random_text = [&rng](size_t n) {
    std::string s(n, ' ');
    for (auto& c : s) {
      c = static_cast<char>('a' + rng.Uniform(26));
    }
    return s;
  };
  auto overlay = [](std::string base, int64_t at, const std::string& data) {
    if (base.size() < static_cast<size_t>(at) + data.size()) {
      base.resize(static_cast<size_t>(at) + data.size(), '\0');
    }
    base.replace(static_cast<size_t>(at), data.size(), data);
    return base;
  };
  struct Case {
    std::string path;
    std::string v1, v2;
    Timestamp t1 = 0;
  };
  std::vector<Case> cases(3);

  // Plain: three full chunks and a short fourth; then a write across the
  // chunk 0/1 boundary and one past the end, which leaves chunk 3's stored
  // bytes short of its new extent (read as zeros).
  cases[0].path = "/plain.bin";
  cases[0].v1 = random_text(3 * kInvChunkSize + 517);
  cases[0].t1 = Write(cases[0].path, 0, cases[0].v1, CreatOptions{});
  const std::string across = random_text(300);
  const std::string past = random_text(50);
  Write(cases[0].path, kInvChunkSize - 100, across);
  Write(cases[0].path, 4 * kInvChunkSize + 10, past);
  cases[0].v2 = overlay(overlay(cases[0].v1, kInvChunkSize - 100, across),
                        4 * kInvChunkSize + 10, past);

  // LZSS-compressed chunks, then one chunk rewritten.
  CreatOptions packed;
  packed.compressed = true;
  std::string text;
  while (text.size() < 3 * kInvChunkSize) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  cases[1].path = "/packed.txt";
  cases[1].v1 = text;
  cases[1].t1 = Write(cases[1].path, 0, text, packed);
  const std::string patch(2000, 'P');
  Write(cases[1].path, kInvChunkSize + 1234, patch);
  cases[1].v2 = overlay(text, kInvChunkSize + 1234, patch);

  // Sparse: holes in chunks 1-4 and a four-byte last chunk.
  cases[2].path = "/sparse.bin";
  cases[2].v1 = "head";
  cases[2].t1 = Write(cases[2].path, 0, "head", CreatOptions{});
  Write(cases[2].path, 5 * kInvChunkSize + 3, "tail");
  cases[2].v2 = overlay("head", 5 * kInvChunkSize + 3, "tail");

  for (const Case& c : cases) {
    Check(c.path, kTimestampNow, c.v2);
    Check(c.path, c.t1, c.v1);
  }

  // Vacuum moves the replaced versions to each chunk table's archive, where
  // only as-of reads find them.
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto stats = fs_->Vacuum(*txn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db_->Commit(*txn).ok());
  EXPECT_GT(stats->archived, 0u);
  for (const Case& c : cases) {
    Check(c.path, kTimestampNow, c.v2);
    Check(c.path, c.t1, c.v1);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkIndex, ChunkReadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Indexed" : "Scanned";
                         });

}  // namespace
}  // namespace invfs
