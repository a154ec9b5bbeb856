// invfs_check: the offline structural verifier. A clean workload must verify
// clean; each deliberate corruption must be reported under the specific
// invariant it breaks.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/access/btree.h"
#include "src/access/btree_layout.h"
#include "src/access/heap.h"
#include "src/buffer/buffer_pool.h"
#include "src/check/checker.h"
#include "src/device/device.h"
#include "src/inversion/inv_fs.h"
#include "src/storage/page.h"
#include "src/util/bytes.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

namespace bl = btree_layout;

// Widens the first key of a leaf by one zero byte before its TID suffix and
// grows `used` to match: the keys stay in order and the suffix still names
// the payload, but on a fixed-width tree the key is one byte too wide.
void WidenFirstKey(std::byte* frame) {
  std::byte* area = frame + bl::kOffEntries;
  const uint16_t klen = GetU16(area);
  const uint16_t used = GetU16(frame + bl::kOffUsed);
  std::byte* at = area + 2 + klen - BTree::kTidSuffix;
  std::memmove(at + 1, at, static_cast<size_t>(area + used - at));
  *at = std::byte{0};
  PutU16(area, static_cast<uint16_t>(klen + 1));
  PutU16(frame + bl::kOffUsed, static_cast<uint16_t>(used + 1));
}

class CheckTest : public ::testing::Test {
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

  // Overwrite an existing file, superseding its fileatt version.
  void OverwriteFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Flush the live database to stable storage and verify the image.
  CheckReport Check() {
    EXPECT_TRUE(db_->FlushCaches().ok());
    auto report = CheckImage(env_);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : CheckReport{};
  }

  // Close the database and open it again over the same image.
  void Reopen() {
    s_.reset();
    fs_.reset();
    db_.reset();
    SetUp();
  }

  Oid ChunkTableOid(const std::string& path) {
    const Snapshot snap{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
    auto oid = fs_->ResolvePath(path, snap);
    EXPECT_TRUE(oid.ok());
    auto table = db_->catalog().GetTable("inv" + std::to_string(*oid));
    EXPECT_TRUE(table.ok());
    return (*table)->oid;
  }

  // Corruption helper: mutate one stored page, then re-stamp its CRC so
  // deeper invariants (not the checksum) are what the checker trips on.
  void MutateAndRestamp(Oid rel, uint32_t block,
                        const std::function<void(std::byte*)>& mutate) {
    std::vector<std::byte> buf(kPageSize);
    ASSERT_TRUE(env_.disk_store->Read(rel, block, buf).ok());
    mutate(buf.data());
    Page(buf.data()).UpdateChecksum();
    ASSERT_TRUE(env_.disk_store->Write(rel, block, buf).ok());
  }

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

TEST_F(CheckTest, CleanImageAfterFileWorkload) {
  MakeFile("/a.txt", std::string(500, 'a'));
  MakeFile("/b.txt", std::string(20000, 'b'));  // multi-chunk
  ASSERT_TRUE(s_->mkdir("/sub").ok());
  MakeFile("/sub/c.txt", "nested");
  OverwriteFile("/a.txt", "overwritten");  // second version of fileatt row
  ASSERT_TRUE(s_->unlink("/b.txt").ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.relations_checked, 5u);
  EXPECT_GT(report.pages_checked, 0u);
  EXPECT_GT(report.tuples_checked, 0u);
  EXPECT_GT(report.index_entries_checked, 0u);
}

TEST_F(CheckTest, CrashedInFlightTransactionLeavesCleanImage) {
  MakeFile("/durable.txt", "committed");
  // An uncommitted transaction whose pages reach stable storage before the
  // crash: the commit log makes its tuples dead, not the image corrupt.
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_creat("/inflight.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data(3000, 'x');
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(db_->buffers().FlushAll().ok());

  s_.reset();
  fs_.reset();
  db_->Crash();
  db_.reset();

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();

  // Recovery (= reopening) changes nothing about that verdict.
  auto db = Database::Open(&env_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  const CheckReport after = Check();
  EXPECT_TRUE(after.ok()) << after.ToString();
}

// One crafted commit-log page, with a status word above kAborted: the
// engine's decoder and the checker's are one, so Database::Open refuses the
// log as Corruption and invfs_check reports commit-log-status, each naming
// the xid.
TEST(CommitLogPage, InvalidStatusIsRefusedByEngineAndChecker) {
  StorageEnv env;
  TxnId xid = kInvalidTxn;
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok());
    auto txn = (*db)->Begin();
    ASSERT_TRUE(txn.ok());
    xid = *txn;
    ASSERT_TRUE((*db)->Commit(xid).ok());
    ASSERT_TRUE((*db)->FlushCaches().ok());
  }
  constexpr size_t kLogEntrySize = 16;
  ASSERT_LT(xid, kPageSize / kLogEntrySize);
  std::vector<std::byte> page(kPageSize);
  ASSERT_TRUE(env.disk_store->Read(kCommitLogRelOid, 0, page).ok());
  ASSERT_NE(GetU32(page.data() + xid * kLogEntrySize),
            static_cast<uint32_t>(TxnStatus::kUnused));
  PutU32(page.data() + xid * kLogEntrySize, 7);
  ASSERT_TRUE(env.disk_store->Write(kCommitLogRelOid, 0, page).ok());
  const std::string named = "xid " + std::to_string(xid) + " has invalid status 7";

  auto report = CheckImage(env);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("commit-log-status")) << report->ToString();
  EXPECT_NE(report->ToString().find(named), std::string::npos) << report->ToString();

  auto reopened = Database::Open(&env);
  EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(reopened.status().message().find(named), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(CheckTest, FlippedByteYieldsChecksumViolation) {
  MakeFile("/victim.txt", std::string(2000, 'v'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/victim.txt");
  auto* store = static_cast<MemBlockStore*>(env_.disk_store.get());
  ASSERT_TRUE(store->CorruptByte(chunks, 0, kPageSize - 50).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("page-checksum")) << report->ToString();
}

TEST_F(CheckTest, CutVersionChainYieldsDuplicateCurrent) {
  MakeFile("/v.txt", "one");
  OverwriteFile("/v.txt", "two");  // supersedes: old fileatt version gets an xmax
  ASSERT_TRUE(db_->FlushCaches().ok());

  auto fileatt = db_->catalog().GetTable("fileatt");
  ASSERT_TRUE(fileatt.ok());
  const Oid rel = (*fileatt)->oid;
  auto nblocks = env_.disk_store->NumBlocks(rel);
  ASSERT_TRUE(nblocks.ok());
  // Cut the version chain: find a superseded version and clear its xmax, so
  // two committed versions of the same file are simultaneously current.
  bool cut = false;
  for (uint32_t b = 0; b < *nblocks && !cut; ++b) {
    MutateAndRestamp(rel, b, [&](std::byte* frame) {
      const uint16_t nslots = GetU16(frame + 2);
      for (uint16_t slot = 0; slot < nslots; ++slot) {
        const std::byte* lp = frame + kPageHeaderSize + slot * kLinePointerSize;
        const uint16_t off = GetU16(lp);
        const uint16_t len = GetU16(lp + 2);
        if (len < kTupleFixedHeader || GetU32(frame + off + 8) == kInvalidTxn) {
          continue;
        }
        PutU32(frame + off + 8, kInvalidTxn);  // xmax := never deleted
        cut = true;
        return;
      }
    });
  }
  ASSERT_TRUE(cut) << "no superseded fileatt version found";

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("duplicate-current-version")) << report->ToString();
}

TEST_F(CheckTest, OutOfOrderBtreeKeyDetected) {
  for (int i = 0; i < 20; ++i) {
    MakeFile("/f" + std::to_string(100 + i), "x");
  }
  ASSERT_TRUE(db_->FlushCaches().ok());

  auto naming = db_->catalog().GetTable("naming");
  ASSERT_TRUE(naming.ok());
  ASSERT_FALSE((*naming)->indexes.empty());
  const Oid index = (*naming)->indexes[0]->oid;
  auto nblocks = env_.disk_store->NumBlocks(index);
  ASSERT_TRUE(nblocks.ok());

  bool swapped = false;
  for (uint32_t b = 1; b < *nblocks && !swapped; ++b) {
    MutateAndRestamp(index, b, [&](std::byte* frame) {
      if (static_cast<uint8_t>(frame[bl::kOffType]) != bl::kNodeLeaf ||
          GetU16(frame + bl::kOffNKeys) < 2) {
        return;
      }
      // First two entries: u16 klen + key + 6-byte TID payload each. Swap the
      // first differing key byte (outside the TID suffix) between them, which
      // inverts their memcmp order.
      std::byte* e0 = frame + bl::kOffEntries;
      const uint16_t k0len = GetU16(e0);
      std::byte* k0 = e0 + 2;
      std::byte* e1 = e0 + 2 + k0len + 6;
      const uint16_t k1len = GetU16(e1);
      std::byte* k1 = e1 + 2;
      const size_t common = std::min(k0len, k1len) - BTree::kTidSuffix;
      for (size_t p = 0; p < common; ++p) {
        if (k0[p] != k1[p]) {
          std::swap(k0[p], k1[p]);
          swapped = true;
          return;
        }
      }
    });
  }
  ASSERT_TRUE(swapped) << "no leaf with two distinguishable keys found";

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("btree-key-order")) << report->ToString();
}

// The live tree trusts a node's `used` header to find the end of its entry
// area, so the checker holds it to the entries: past the area, or off by a
// single byte from what the entries occupy, is a node-encoding violation.
TEST_F(CheckTest, BtreeUsedHeaderMismatchDetected) {
  MakeFile("/u1", "x");
  MakeFile("/u2", "y");
  ASSERT_TRUE(db_->FlushCaches().ok());
  auto naming = db_->catalog().GetTable("naming");
  ASSERT_TRUE(naming.ok());
  ASSERT_FALSE((*naming)->indexes.empty());
  const Oid index = (*naming)->indexes[0]->oid;
  std::vector<std::byte> meta(kPageSize);
  ASSERT_TRUE(env_.disk_store->Read(index, 0, meta).ok());
  const uint32_t root = GetU32(meta.data() + bl::kOffMetaRoot);
  uint16_t good = 0;
  MutateAndRestamp(index, root,
                   [&](std::byte* frame) { good = GetU16(frame + bl::kOffUsed); });
  for (const uint32_t bad : {uint32_t{bl::kEntryArea} + 1, uint32_t{good} + 1}) {
    MutateAndRestamp(index, root, [&](std::byte* frame) {
      PutU16(frame + bl::kOffUsed, static_cast<uint16_t>(bad));
    });
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has("btree-node-encoding")) << "used " << bad << "\n"
                                                    << report->ToString();
  }
  MutateAndRestamp(index, root,
                   [&](std::byte* frame) { PutU16(frame + bl::kOffUsed, good); });
  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
}

TEST_F(CheckTest, OrphanChunkTableDetected) {
  // A chunk table whose file oid no fileatt version references: unreachable
  // storage that a lost delete (or botched vacuum) would leave behind.
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  const Schema chunk_schema{{"chunkno", TypeId::kInt4},
                            {"data", TypeId::kBytea},
                            {"selfid", TypeId::kInt8},
                            {"rawlen", TypeId::kInt4}};
  auto table = db_->catalog().CreateTable(*txn, "inv77777", chunk_schema,
                                          kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.Has("orphan-chunk-table")) << report.ToString();
}

TEST_F(CheckTest, MissingRelationDetected) {
  MakeFile("/gone.txt", "data");
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/gone.txt");
  ASSERT_TRUE(env_.disk_store->Drop(chunks).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("relation-missing")) << report->ToString();
}

TEST_F(CheckTest, UnreferencedRelationDetected) {
  MakeFile("/any.txt", "data");
  ASSERT_TRUE(db_->FlushCaches().ok());
  ASSERT_TRUE(env_.disk_store->Create(4242).ok());

  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("relation-unreferenced")) << report->ToString();
}

TEST_F(CheckTest, ChunkSelfIdentMismatchDetected) {
  MakeFile("/w.txt", std::string(1000, 'w'));
  ASSERT_TRUE(db_->FlushCaches().ok());
  const Oid chunks = ChunkTableOid("/w.txt");

  // Rewrite the selfid of the first chunk record to a wrong value. The first
  // tuple sits at the very end of the page and selfid is its last (or
  // second-to-last, when rawlen is stored) column; rather than chase the exact
  // offset, flip each candidate byte of the tuple tail until the record-level
  // check (not the page CRC, which we re-stamp) fires.
  bool hit = false;
  for (uint32_t off = kPageSize - 1; off > kPageSize - 24 && !hit; --off) {
    MutateAndRestamp(chunks, 0, [&](std::byte* frame) { frame[off] ^= std::byte{0xFF}; });
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok());
    if (report->Has("chunk-self-ident")) {
      hit = true;
    } else {
      MutateAndRestamp(chunks, 0,
                       [&](std::byte* frame) { frame[off] ^= std::byte{0xFF}; });
    }
  }
  EXPECT_TRUE(hit) << "no byte in the tuple tail tripped the selfid check";
}

// The chunk record rule (chunk_record.h) is one for the file system's chunk
// reads and invfs_check: a record holding more bytes than one chunk is
// chunk-length to both.
TEST_F(CheckTest, ChunkLongerThanAChunkIsRefusedByBoth) {
  MakeFile("/long.txt", "abc");
  const Snapshot now{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto file = fs_->ResolvePath("/long.txt", now);
  ASSERT_TRUE(file.ok());
  auto table = db_->catalog().GetTable(ChunkTableName(*file));
  ASSERT_TRUE(table.ok());
  auto rows = HeapRows(*(*table)->heap, now);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  const Blob data(3, std::byte{'a'});
  ASSERT_TRUE(db_->ReplaceRow(*txn, *table, rows->front().tid,
                              {Value::Int4(0), Value::Bytes(data),
                               Value::Int8(ChunkSelfIdent(*file, 0)),
                               Value::Int4(kInvChunkSize + 1)})
                  .ok());
  ASSERT_TRUE(db_->Commit(*txn).ok());

  const CheckReport report = Check();
  EXPECT_TRUE(report.Has("chunk-length")) << report.ToString();
  auto fd = s_->p_open("/long.txt", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(16);
  auto read = s_->p_read(*fd, buf);
  EXPECT_EQ(read.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(read.status().message().find("chunk-length"), std::string::npos)
      << read.status().ToString();
}

// Every as-of read applies the chunk record rule to the versions vacuum
// moved into a chunk table's archive (Database::VisitVersions), and so does
// invfs_check: an archived version whose selfid is one bit off, checksum
// re-stamped, is chunk-self-ident to both.
TEST_F(CheckTest, ArchivedChunkSelfIdentIsRefusedByBoth) {
  MakeFile("/old.txt", "first");
  const Timestamp first = db_->Now();
  OverwriteFile("/old.txt", "second");
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto stats = fs_->Vacuum(*txn);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(db_->Commit(*txn).ok());
  ASSERT_GT(stats->archived, 0u);
  const Snapshot now{kTimestampNow, kInvalidTxn, &db_->txns().log(), nullptr};
  auto file = fs_->ResolvePath("/old.txt", now);
  ASSERT_TRUE(file.ok());
  auto archive = db_->catalog().GetTable(ArchiveName(ChunkTableName(*file)));
  ASSERT_TRUE(archive.ok());
  const Oid archived = (*archive)->oid;
  const CheckReport clean = Check();
  ASSERT_TRUE(clean.ok()) << clean.ToString();

  MutateAndRestamp(archived, 0, [](std::byte* frame) {
    const Page page(frame);
    auto tuple = page.GetTuple(0);
    ASSERT_TRUE(tuple.ok());
    std::array<ColumnView, 4> cols;
    ASSERT_TRUE(ViewColumns(ChunkTableSchema(), *tuple, cols).ok());
    ASSERT_FALSE(cols[2].null);
    frame[cols[2].bytes.data() - frame] ^= std::byte{1};  // selfid's low byte
  });
  auto report = CheckImage(env_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has("chunk-self-ident")) << report->ToString();

  Reopen();
  auto fd = s_->p_open("/old.txt", OpenMode::kRead, first);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(16);
  auto read = s_->p_read(*fd, buf);
  EXPECT_EQ(read.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(read.status().message().find("chunk-self-ident"), std::string::npos)
      << read.status().ToString();
}

// Catalog::Load and invfs_check read pg_class, pg_attribute and pg_index
// through one DecodeCatalogDefs. Each crafted, committed catalog row below
// goes into a fresh image holding table t (k text, n int4) and its index on
// k: invfs_check must report it under the named invariant, and
// Database::Open must refuse the image with Corruption naming the same one
// (a second pg_index row of one index used to leave the table holding a
// freed IndexInfo).
TEST(CatalogRowsAgree, EveryCraftedRowIsRefusedByBoth) {
  struct Case {
    const char* name;
    const char* invariant;
    Oid catalog;
    // The crafted row, from t's oid, its index's and an oid nothing uses.
    std::function<Row(Oid table, Oid index, Oid unused)> row;
  };
  auto attribute = [](Oid rel, int32_t type, int32_t attnum) {
    return Row{Value::MakeOid(rel), Value::Text("x"), Value::Int4(type), Value::Int4(attnum)};
  };
  auto relation = [](Oid rel, int32_t device, int32_t kind) {
    return Row{Value::Text("r"), Value::MakeOid(rel), Value::Int4(device), Value::Int4(kind)};
  };
  auto index_row = [](Oid index, Oid heap, const char* keys) {
    return Row{Value::MakeOid(index), Value::MakeOid(heap), Value::Text(keys)};
  };
  constexpr auto kInt4 = static_cast<int32_t>(TypeId::kInt4);
  const Case cases[] = {
      {"repeated attnum", "attribute-gap", kPgAttributeOid,
       [&](Oid t, Oid, Oid) { return attribute(t, kInt4, 1); }},
      {"attnum past the column count", "attribute-gap", kPgAttributeOid,
       [&](Oid t, Oid, Oid) { return attribute(t, kInt4, 5); }},
      {"atttypid 99", "attribute-gap", kPgAttributeOid,
       [&](Oid t, Oid, Oid) { return attribute(t, 99, 2); }},
      {"relkind 9", "relation-bad-kind", kPgClassOid,
       [&](Oid, Oid, Oid unused) { return relation(unused, kDeviceMagneticDisk, 9); }},
      {"reldevice 7", "relation-bad-device", kPgClassOid,
       [&](Oid, Oid, Oid unused) { return relation(unused, 7, 0); }},
      {"pg_index row naming a heap as its index", "index-ref", kPgIndexOid,
       [&](Oid t, Oid, Oid) { return index_row(t, t, "0"); }},
      {"pg_index row over a missing heap", "index-ref", kPgIndexOid,
       [&](Oid, Oid i, Oid unused) { return index_row(i, unused, "0"); }},
      {"indkeys past the heap's columns", "index-ref", kPgIndexOid,
       [&](Oid t, Oid i, Oid) { return index_row(i, t, "2"); }},
      {"index relation with no pg_index row", "index-unreferenced", kPgClassOid,
       [&](Oid, Oid, Oid unused) {
         return relation(unused, kDeviceMagneticDisk, static_cast<int32_t>(RelKind::kIndex));
       }},
      {"attribute row of a missing relation", "attribute-orphan", kPgAttributeOid,
       [&](Oid, Oid, Oid unused) { return attribute(unused, kInt4, 0); }},
      {"second pg_class row of a relation", "duplicate-current-version", kPgClassOid,
       [&](Oid t, Oid, Oid) { return relation(t, kDeviceMagneticDisk, 0); }},
      {"second pg_index row of an index", "duplicate-current-version", kPgIndexOid,
       [&](Oid t, Oid i, Oid) { return index_row(i, t, "0"); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StorageEnv env;
    {
      auto db = Database::Open(&env);
      ASSERT_TRUE(db.ok());
      Catalog& catalog = (*db)->catalog();
      auto txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      auto table = catalog.CreateTable(
          *txn, "t", Schema{{"k", TypeId::kText}, {"n", TypeId::kInt4}}, kDeviceMagneticDisk);
      ASSERT_TRUE(table.ok());
      auto index = catalog.CreateIndex(*txn, *table, {0});
      ASSERT_TRUE(index.ok());
      ASSERT_TRUE(
          (*db)->InsertRow(*txn, *table, {Value::Text("key"), Value::Int4(1)}).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
      ASSERT_TRUE((*db)->FlushCaches().ok());
      auto clean = CheckImage(env);
      ASSERT_TRUE(clean.ok());
      ASSERT_TRUE(clean->ok()) << clean->ToString();

      txn = (*db)->Begin();
      ASSERT_TRUE(txn.ok());
      auto holder = catalog.GetTableByOid(c.catalog);
      ASSERT_TRUE(holder.ok());
      const Row row = c.row((*table)->oid, (*index)->oid, catalog.AllocateOid());
      ASSERT_TRUE((*holder)->heap->Insert(*txn, row).ok());
      ASSERT_TRUE((*db)->Commit(*txn).ok());
      ASSERT_TRUE((*db)->FlushCaches().ok());
    }
    auto report = CheckImage(env);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(c.invariant)) << report->ToString();
    auto reopened = Database::Open(&env);
    EXPECT_EQ(reopened.status().code(), ErrorCode::kCorruption)
        << reopened.status().ToString();
    EXPECT_NE(reopened.status().message().find(c.invariant), std::string::npos)
        << reopened.status().ToString();
  }
}

// invfs_check and BTree::CheckInvariants run one structural walk of a
// B-tree. Each crafted node below is fed to both, the engine through a fresh
// buffer pool over the image; both must reject it, invfs_check under the
// named invariant. The image holds a table with a text index at least three
// levels deep (1000-byte keys) and an int4 index whose 200 entries fill one
// fixed-width leaf.
class VerifiersAgreeTest : public CheckTest {
 protected:
  void SetUp() override {
    CheckTest::SetUp();
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok());
    auto table = db_->catalog().CreateTable(
        *txn, "t", Schema{{"k", TypeId::kText}, {"n", TypeId::kInt4}}, kDeviceMagneticDisk);
    ASSERT_TRUE(table.ok());
    table_ = (*table)->oid;
    schema_ = (*table)->schema;
    auto text = db_->catalog().CreateIndex(*txn, *table, {0});
    auto int4 = db_->catalog().CreateIndex(*txn, *table, {1});
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(int4.ok());
    text_ = (*text)->oid;
    int4_ = (*int4)->oid;
    for (int i = 0; i < 200; ++i) {
      std::string key = std::to_string(1000 + i);
      key.resize(1000, 'k');
      ASSERT_TRUE(db_->InsertRow(*txn, *table, {Value::Text(key), Value::Int4(i)}).ok());
    }
    ASSERT_TRUE(db_->Commit(*txn).ok());
    ASSERT_TRUE(db_->FlushCaches().ok());
  }

  std::vector<std::byte> Block(Oid rel, uint32_t block) {
    std::vector<std::byte> buf(kPageSize);
    EXPECT_TRUE(env_.disk_store->Read(rel, block, buf).ok());
    return buf;
  }
  uint32_t Root(Oid index) { return GetU32(Block(index, 0).data() + bl::kOffMetaRoot); }
  uint32_t LeftmostChild(Oid index, uint32_t block) {
    return GetU32(Block(index, block).data() + bl::kOffLeftChild);
  }
  uint8_t Type(Oid index, uint32_t block) {
    return static_cast<uint8_t>(Block(index, block)[bl::kOffType]);
  }

  // `read` on a fresh buffer pool over the stored image of `rel`.
  Status OverImage(Oid rel, const std::function<Status(BufferPool&)>& read) {
    SimClock clock;
    DeviceSwitch devices;
    devices.Register(kDeviceMagneticDisk,
                     std::make_unique<NvramDevice>(env_.disk_store.get()));
    devices.BindRelation(rel, kDeviceMagneticDisk);
    BufferPool pool(&devices, 16, &clock);
    return read(pool);
  }
  // CheckInvariants over the stored image.
  Status EngineCheck(Oid index) {
    return OverImage(index, [&](BufferPool& pool) {
      auto tree = BTree::Open(index, &pool, index == int4_ ? 4 : 0);
      return tree.ok() ? (*tree)->CheckInvariants() : tree.status();
    });
  }
  // Heap::VisitEachStored over the stored image of t, each version read as
  // the engine's readers read one (ViewColumns).
  Status EngineScan() {
    return OverImage(table_, [&](BufferPool& pool) {
      const Heap heap(table_, &schema_, &pool, nullptr);
      std::array<ColumnView, 2> cols;
      return heap.VisitEachStored([&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
        INV_RETURN_IF_ERROR(ViewColumns(schema_, tuple, cols));
        return false;
      });
    });
  }

  Oid table_ = kInvalidOid;
  Schema schema_;
  Oid text_ = kInvalidOid;
  Oid int4_ = kInvalidOid;
};

TEST_F(VerifiersAgreeTest, EveryCraftedNodeIsRejectedByBoth) {
  const uint32_t text_root = Root(text_);
  const uint32_t text_inner = LeftmostChild(text_, text_root);
  const uint32_t text_leaf = LeftmostChild(text_, text_inner);
  ASSERT_EQ(Type(text_, text_root), bl::kNodeInternal);
  ASSERT_EQ(Type(text_, text_inner), bl::kNodeInternal);
  ASSERT_EQ(Type(text_, text_leaf), bl::kNodeLeaf);
  const uint32_t int4_root = Root(int4_);
  ASSERT_EQ(Type(int4_, int4_root), bl::kNodeLeaf);
  ASSERT_EQ(GetU16(Block(int4_, int4_root).data() + bl::kOffNKeys), 200);
  constexpr uint32_t kStride = 2 + 4 + BTree::kTidSuffix + 6;  // int4 leaf entry
  // Entry 100 is the first one a bisection of 200 entries probes.
  constexpr uint32_t kProbed = bl::kOffEntries + 100 * kStride;

  struct Case {
    const char* name;
    Oid index;
    uint32_t block;
    const char* invariant;
    std::function<void(std::byte*)> damage;
  };
  const Case cases[] = {
      {"keys out of order", text_, text_leaf, "btree-key-order",
       [](std::byte* p) {
         // Swap the first differing byte of the first two keys.
         std::byte* k0 = p + bl::kOffEntries + 2;
         std::byte* k1 = k0 + GetU16(k0 - 2) + 6 + 2;  // past key 0, its TID, key 1's length
         size_t i = 0;
         while (k0[i] == k1[i]) {
           ++i;
         }
         std::swap(k0[i], k1[i]);
       }},
      {"used past the entry area", text_, text_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + bl::kOffUsed, bl::kEntryArea + 1); }},
      {"used one byte long", text_, text_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + bl::kOffUsed, GetU16(p + bl::kOffUsed) + 1); }},
      {"fixed width: used one byte long", int4_, int4_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + bl::kOffUsed, GetU16(p + bl::kOffUsed) + 1); }},
      {"fixed width: one key too many", int4_, int4_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + bl::kOffNKeys, 201); }},
      {"fixed width: probed key one byte long", int4_, int4_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + kProbed, 4 + BTree::kTidSuffix + 1); }},
      {"fixed width: probed key length 0xFFFF", int4_, int4_root, "btree-node-encoding",
       [](std::byte* p) { PutU16(p + kProbed, 0xFFFF); }},
      {"fixed width: first key widened", int4_, int4_root, "btree-node-encoding",
       WidenFirstKey},
      {"duplicate key", int4_, int4_root, "btree-key-order",
       [](std::byte* p) {
         std::memcpy(p + bl::kOffEntries + kStride, p + bl::kOffEntries, kStride);
       }},
      {"empty internal node is its own child", int4_, int4_root, "btree-node-encoding",
       [int4_root](std::byte* p) {
         p[bl::kOffType] = std::byte{bl::kNodeInternal};
         PutU16(p + bl::kOffNKeys, 0);
         PutU16(p + bl::kOffUsed, 0);
         PutU32(p + bl::kOffLeftChild, int4_root);
       }},
      {"keyed child is the root", text_, text_root, "btree-cycle",
       [text_root](std::byte* p) {
         std::byte* e = p + bl::kOffEntries;
         for (uint16_t i = 1; i < GetU16(p + bl::kOffNKeys); ++i) {
           e += 2 + GetU16(e) + 4;
         }
         PutU32(e + 2 + GetU16(e), text_root);
       }},
      {"sibling chain cut", text_, text_leaf, "btree-sibling",
       [](std::byte* p) { PutU32(p + bl::kOffRightSib, BTree::kNoBlock); }},
      {"leaf at the wrong depth", text_, text_root, "btree-depth",
       [text_leaf](std::byte* p) { PutU32(p + bl::kOffLeftChild, text_leaf); }},
  };

  auto clean = CheckImage(env_);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->ok()) << clean->ToString();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(EngineCheck(c.index).ok());
    const std::vector<std::byte> saved = Block(c.index, c.block);
    MutateAndRestamp(c.index, c.block, c.damage);
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(c.invariant)) << report->ToString();
    EXPECT_EQ(EngineCheck(c.index).code(), ErrorCode::kCorruption);
    ASSERT_TRUE(env_.disk_store->Write(c.index, c.block, saved).ok());
  }
  auto restored = CheckImage(env_);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ok()) << restored->ToString();
}

// invfs_check and the engine's heap reads walk a heap page's slots through
// one rule (WalkHeapPage, heap.h). Each crafted page of t below must be
// reported under the named invariant; where the engine reads the damaged
// slot, Heap::VisitEachStored must refuse it as Corruption too. The
// overlap and a zero xmin are what only the checker can see.
using HeapVerifiersAgree = VerifiersAgreeTest;

TEST_F(HeapVerifiersAgree, EveryCraftedHeapPageIsRefusedByBoth) {
  constexpr uint32_t kNslots = 2;
  constexpr uint32_t kLower = 4;
  // Slot `s`'s line pointer: (u16 offset, u16 length).
  auto lp = [](std::byte* p, uint16_t s) { return p + kPageHeaderSize + s * kLinePointerSize; };
  auto tuple = [&](std::byte* p, uint16_t s) { return p + GetU16(lp(p, s)); };
  struct Case {
    const char* name;
    const char* invariant;
    bool engine_refuses;
    std::function<void(std::byte*)> damage;
  };
  const Case cases[] = {
      {"line pointer past the line-pointer array", "page-geometry", true,
       [](std::byte* p) { PutU16(p + kNslots, GetU16(p + kNslots) + 1); }},
      {"line pointer into the free gap", "line-pointer-bounds", true,
       [&](std::byte* p) { PutU16(lp(p, 0), GetU16(p + kLower)); }},
      {"line pointer past 8192", "line-pointer-bounds", true,
       [&](std::byte* p) { PutU16(lp(p, 0) + 2, GetU16(lp(p, 0) + 2) + 1); }},
      {"live slot shorter than the header", "tuple-decode", true,
       [&](std::byte* p) { PutU16(lp(p, 0) + 2, kTupleFixedHeader - 1); }},
      {"natts mismatch", "tuple-decode", true,
       [&](std::byte* p) { PutU16(tuple(p, 0) + 12, 3); }},
      {"varlena length past the tuple", "tuple-decode", true,
       // k's length word follows the header and the one-byte null bitmap.
       [&](std::byte* p) { PutU32(tuple(p, 0) + kTupleFixedHeader + 1, 5000); }},
      {"two overlapping tuples", "tuple-overlap", false,
       [&](std::byte* p) { std::memcpy(lp(p, 1), lp(p, 0), kLinePointerSize); }},
      {"lower one line pointer short", "page-geometry", true,
       [](std::byte* p) { PutU16(p + kLower, GetU16(p + kLower) - kLinePointerSize); }},
      {"xmin 0", "tuple-xmin-zero", false,
       [&](std::byte* p) { PutU32(tuple(p, 0) + 4, kInvalidTxn); }},
  };

  auto clean = CheckImage(env_);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean->ok()) << clean->ToString();
  ASSERT_TRUE(EngineScan().ok());
  ASSERT_GE(GetU16(Block(table_, 0).data() + kNslots), 2);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::byte> saved = Block(table_, 0);
    MutateAndRestamp(table_, 0, c.damage);
    auto report = CheckImage(env_);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->Has(c.invariant)) << report->ToString();
    const Status engine = EngineScan();
    if (c.engine_refuses) {
      EXPECT_EQ(engine.code(), ErrorCode::kCorruption) << engine.ToString();
    } else {
      EXPECT_TRUE(engine.ok()) << engine.ToString();
    }
    ASSERT_TRUE(env_.disk_store->Write(table_, 0, saved).ok());
  }
  auto restored = CheckImage(env_);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ok()) << restored->ToString();
}

// The invfs_check binary over a FileBlockStore image: exit 0 on a clean
// image, 1 on a re-stamped widened key, 0 with --tolerate-quarantined on a
// flipped byte, 2 on a bad argument.
TEST(InvfsCheckCli, ExitCodes) {
  std::string dir = (std::filesystem::temp_directory_path() / "invfs_check_XXXXXX").string();
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  Oid chunks = kInvalidOid;
  Oid index = kInvalidOid;
  {
    StorageEnv env;
    auto store = FileBlockStore::Open(dir);
    ASSERT_TRUE(store.ok());
    env.disk_store = std::move(*store);
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok());
    InversionFs fs(db->get());
    ASSERT_TRUE(fs.Mount().ok());
    auto s = fs.NewSession();
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->p_begin().ok());
    auto fd = (*s)->p_creat("/f");
    ASSERT_TRUE(fd.ok());
    const std::string data(3000, 'f');
    ASSERT_TRUE((*s)->p_write(*fd, std::as_bytes(std::span(data))).ok());
    ASSERT_TRUE((*s)->p_close(*fd).ok());
    ASSERT_TRUE((*s)->p_commit().ok());
    const Snapshot snap{kTimestampNow, kInvalidTxn, &(*db)->txns().log(), nullptr};
    auto file = fs.ResolvePath("/f", snap);
    ASSERT_TRUE(file.ok());
    auto table = (*db)->catalog().GetTable("inv" + std::to_string(*file));
    ASSERT_TRUE(table.ok());
    chunks = (*table)->oid;
    index = (*table)->indexes.at(0)->oid;
    ASSERT_TRUE((*db)->FlushCaches().ok());
  }
  auto store = FileBlockStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto run = [&](const std::string& args) {
    const std::string cmd = std::string(INVFS_CHECK_BIN) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  };
  std::vector<std::byte> saved(kPageSize);
  ASSERT_TRUE((*store)->Read(index, 1, saved).ok());  // the chunk index's one leaf
  EXPECT_EQ(run(dir), 0);

  std::vector<std::byte> page = saved;
  WidenFirstKey(page.data());
  Page(page.data()).UpdateChecksum();
  ASSERT_TRUE((*store)->Write(index, 1, page).ok());
  EXPECT_EQ(run(dir), 1);
  EXPECT_EQ(run("--tolerate-quarantined " + dir), 1);
  ASSERT_TRUE((*store)->Write(index, 1, saved).ok());

  ASSERT_TRUE((*store)->Read(chunks, 0, page).ok());
  page[kPageSize - 50] ^= std::byte{0xFF};  // no re-stamp: a checksum failure
  ASSERT_TRUE((*store)->Write(chunks, 0, page).ok());
  EXPECT_EQ(run(dir), 1);
  EXPECT_EQ(run("--tolerate-quarantined " + dir), 0);

  EXPECT_EQ(run("--tolerate-everything " + dir), 2);
  EXPECT_EQ(run(""), 2);
  EXPECT_EQ(run(dir + " " + dir + " " + dir + " " + dir), 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace invfs
