// The Inversion file system.
//
// "Strictly speaking, the Inversion file system is a small set of routines
// that are compiled into the POSTGRES data manager." Files are byte streams
// chunked into records of a per-file table named inv<oid> ("the name of the
// POSTGRES table storing data chunks for /etc/passwd would be inv23114"),
// with a B-tree index on the chunk number. The namespace lives in
//   naming(filename, parentid, file)
// and per-file attributes in
//   fileatt(file, owner, type, size, ctime, mtime, atime, device, flags)
// exactly as described in the paper (device/flags are implementation columns
// backing migration and the compressed/no-history options).
//
// Chunk size: "file data are collected into chunks slightly smaller than
// 8 KBytes. The size of the chunk is calculated so that a single record will
// fit exactly on a POSTGRES data manager page." kInvChunkSize below is that
// calculation for our page and tuple formats.
//
// Sessions: the client-visible API (p_creat/p_open/p_close/p_read/p_write/
// p_lseek/p_begin/p_commit/p_abort, Figure 2 of the paper) lives on
// InvSession. "Neither POSTGRES nor Inversion supports nested transactions,
// so a single application program may only have one transaction active at any
// time" — InvSession enforces that. Operations outside an explicit
// transaction run in their own single-op transaction.

#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/catalog/database.h"
#include "src/inversion/chunk_record.h"
#include "src/obs/tenant.h"
#include "src/query/executor.h"
#include "src/query/function_registry.h"
#include "src/rules/rules.h"
#include "src/storage/page.h"
#include "src/storage/tuple.h"
#include "src/vacuum/vacuum.h"

namespace invfs {

// Paper: "Inversion files can be 17.6 TBytes in length."
inline constexpr int64_t kInvMaxFileSize = 17'600'000'000'000;

// fileatt flag bits.
inline constexpr int32_t kInvFlagCompressed = 1 << 0;
inline constexpr int32_t kInvFlagNoHistory = 1 << 1;

// A naming row: one directory entry. Decoded in one place, Decode, from the
// tuple's column views (ViewColumns), with no Row in between. A null column
// (one a POSTQUEL append left unset) is Corruption naming the file oid: the
// file system needs every column.
struct NamingEntry {
  enum Column : size_t { kFilename = 0, kParent, kFile, kColumns };
  using Views = std::array<ColumnView, kColumns>;

  std::string filename;
  Oid parent = kInvalidOid;
  Oid file = kInvalidOid;

  static Result<NamingEntry> Decode(const Views& cols);
  Row ToRow() const;
};

// A fileatt row: one file's attributes, decoded as NamingEntry is.
struct FileAtt {
  enum Column : size_t {
    kFile = 0,
    kOwner,
    kType,
    kSize,
    kCtime,
    kMtime,
    kAtime,
    kDevice,
    kFlags,
    kColumns,
  };
  using Views = std::array<ColumnView, kColumns>;

  Oid file = kInvalidOid;
  std::string owner;
  Oid type = kInvalidOid;
  int64_t size = 0;
  Timestamp ctime = 0;
  Timestamp mtime = 0;
  Timestamp atime = 0;
  DeviceId device = kDeviceMagneticDisk;
  int32_t flags = 0;

  static Result<FileAtt> Decode(const Views& cols);
  Row ToRow() const;
};

struct CreatOptions {
  DeviceId device = kDeviceMagneticDisk;  // "the mode flag to p_open and
                                          // p_creat encodes the device"
  std::string owner = "root";
  std::string type = "file";              // must exist in pg_type
  bool compressed = false;                // LZSS chunk compression
  bool keep_history = true;               // false: vacuum discards versions
};

struct FileStat {
  Oid oid = kInvalidOid;
  std::string name;
  std::string owner;
  std::string type;
  int64_t size = 0;
  Timestamp ctime = 0;
  Timestamp mtime = 0;
  Timestamp atime = 0;
  DeviceId device = kDeviceMagneticDisk;
  bool is_directory = false;
  bool compressed = false;
};

struct DirEntry {
  std::string name;
  Oid oid = kInvalidOid;
  bool is_directory = false;
};

struct InvOptions {
  bool coalesce_writes = true;      // paper: sequential small writes coalesce
  bool maintain_chunk_index = true; // ablation: B-tree on chunk number
};

class InvSession;

class InversionFs {
 public:
  InversionFs(Database* db, InvOptions options = {});
  ~InversionFs();

  // Create or load the file system structures (naming, fileatt, their
  // indices, the root directory) and register the built-in file functions.
  // Idempotent across reopen.
  Status Mount();

  Result<std::unique_ptr<InvSession>> NewSession();

  // --- shared lookups (used by sessions and by registered functions) -------

  // Resolve a path to its file oid under `snap`.
  Result<Oid> ResolvePath(const std::string& path, const Snapshot& snap);
  Result<FileStat> StatOid(Oid file, const Snapshot& snap);
  Result<FileStat> StatPath(const std::string& path, const Snapshot& snap);
  // Full pathname of a file oid (walks parent links).
  Result<std::string> PathOf(Oid file, const Snapshot& snap);
  // Read an entire file's contents under `snap` (file functions use this).
  Result<std::vector<std::byte>> ReadWholeFile(Oid file, const Snapshot& snap);

  // Run one POSTQUEL statement (the paper's ad-hoc query access). Uses the
  // session's transaction when given, else a single-statement transaction.
  Result<ResultSet> Query(std::string_view text, InvSession* session = nullptr);

  // Run migration rules now (the paper imagines this as a periodic daemon).
  Result<int> ApplyMigrationRules(TxnId txn);

  // Vacuum every file table + namespace tables inside `txn`.
  Result<VacuumStats> Vacuum(TxnId txn, bool keep_history = true);

  Database& db() { return *db_; }
  FunctionRegistry& registry() { return registry_; }
  Executor& executor() { return *executor_; }
  RuleEngine& rules() { return *rules_; }
  const InvOptions& options() const { return options_; }

  TableInfo* naming() { return naming_; }
  TableInfo* fileatt() { return fileatt_; }
  Oid root_oid() const { return root_oid_; }

 private:
  friend class InvSession;

  Status RegisterBuiltinFunctions(TxnId txn);
  Status RegisterMigrationAction();
  // Insert the naming and fileatt rows of a new, empty namespace entry.
  Status InsertEntry(TxnId txn, Oid parent, const std::string& name, Oid oid,
                     const std::string& owner, Oid type, DeviceId device, int32_t flags);

  // Find the TID and attributes of the fileatt tuple for `file` under `snap`.
  Result<std::optional<std::pair<Tid, FileAtt>>> FileattLookup(Oid file,
                                                               const Snapshot& snap);
  // Find the TID and entry of the naming tuple for (parent, name) under `snap`.
  Result<std::optional<std::pair<Tid, NamingEntry>>> NamingLookup(
      Oid parent, const std::string& name, const Snapshot& snap);
  // Find the TID and entry of the naming tuple that names `file` under `snap`.
  Result<std::optional<std::pair<Tid, NamingEntry>>> NamingOf(Oid file,
                                                              const Snapshot& snap);
  Result<std::vector<DirEntry>> ListDirectory(Oid dir, const Snapshot& snap);

  // Calls `fn(tid, chunkno, bytes) -> Status` on the checked raw contents of
  // each version of `file`'s chunks visible under `snap` (archive included,
  // see Database::VisitVersions): chunk `*chunkno`'s, through `index` when
  // there is one, or every chunk's in one pass. Returns whether chunk
  // `*chunkno` was found. `fn` runs under the page latch (copy out; no pin,
  // latch, lock or I/O), except for compressed chunks, which it sees
  // unpacked after it.
  template <typename Fn>
  Result<bool> VisitChunks(Oid file, const TableInfo* table, const IndexInfo* index,
                           std::optional<int64_t> chunkno, const Snapshot& snap,
                           Fn&& fn);

  Database* db_;
  InvOptions options_;
  FunctionRegistry registry_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<RuleEngine> rules_;
  std::unique_ptr<VacuumCleaner> vacuum_;

  TableInfo* naming_ = nullptr;
  TableInfo* fileatt_ = nullptr;
  IndexInfo* naming_by_parent_name_ = nullptr;  // (parentid, filename)
  IndexInfo* naming_by_file_ = nullptr;         // (file)
  IndexInfo* fileatt_by_file_ = nullptr;        // (file)
  Oid root_oid_ = kInvalidOid;
  Oid dir_type_oid_ = kInvalidOid;
  Oid file_type_oid_ = kInvalidOid;

  // Ends an entry point's span and books its duration into
  // op.latency_us{<op>} and the calling thread's tenant instruments. Entry
  // points call it on every outcome, failures included, so the SLO error
  // ratio sees every request.
  void FinishOp(ScopedSpan& span, TenantOp op, bool ok);

  // Request-tracing plumbing, cached at construction so the p_* entry points
  // never touch the registry maps: the database's span ring plus one
  // op.latency_us histogram per op class the SLO module evaluates.
  SpanRing* spans_ = nullptr;
  std::array<Histogram*, kTenantOpCount> op_latency_{};
};

// One client of the file system: at most one open transaction, a table of
// open file descriptors, POSIX-flavoured byte-stream semantics.
class InvSession {
 public:
  explicit InvSession(InversionFs* fs) : fs_(fs) {}
  ~InvSession();

  InvSession(const InvSession&) = delete;
  InvSession& operator=(const InvSession&) = delete;

  // --- transactions (Figure 2) ---------------------------------------------
  Status p_begin();
  Status p_commit();
  Status p_abort();
  bool in_txn() const { return txn_ != kInvalidTxn; }
  TxnId txn() const { return txn_; }

  // --- files ----------------------------------------------------------------
  Result<int> p_creat(const std::string& path, CreatOptions options = {});
  // `as_of` != kTimestampNow opens the historical state (read-only).
  Result<int> p_open(const std::string& path, OpenMode mode,
                     Timestamp as_of = kTimestampNow);
  Status p_close(int fd);
  Result<int64_t> p_read(int fd, std::span<std::byte> buf);
  Result<int64_t> p_write(int fd, std::span<const std::byte> buf);
  Result<int64_t> p_lseek(int fd, int64_t offset, Whence whence);
  Result<FileStat> p_fstat(int fd);

  // --- namespace -------------------------------------------------------------
  Status mkdir(const std::string& path);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  Result<FileStat> stat(const std::string& path, Timestamp as_of = kTimestampNow);
  Result<std::vector<DirEntry>> readdir(const std::string& path,
                                        Timestamp as_of = kTimestampNow);

  // Ad-hoc POSTQUEL in this session's transaction scope.
  Result<ResultSet> Query(std::string_view text) { return fs_->Query(text, this); }

 private:
  friend class InversionFs;

  struct Handle {
    Oid file = kInvalidOid;
    TableInfo* chunk_table = nullptr;
    IndexInfo* chunk_index = nullptr;  // null when index maintenance disabled
    bool writable = false;
    Timestamp as_of = kTimestampNow;  // historical (read-only) unless now
    bool compressed = false;
    int64_t offset = 0;
    int64_t size = 0;
    bool meta_dirty = false;   // size/mtime pending fileatt update
    Timestamp pending_mtime = 0;
    // Write-coalescing buffer: one chunk's worth of bytes being assembled.
    int64_t buffered_chunk = -1;
    std::vector<std::byte> buffer;
    int64_t buffer_len = 0;    // valid bytes in buffer
    bool buffer_dirty = false;
    // Chunks that may already have a record: everything below the chunk count
    // at open time, plus chunks this handle flushed. Lets the index-less
    // configuration skip a full-table existence scan for brand-new chunks.
    int64_t chunks_at_open = 0;
    std::set<int64_t> flushed_chunks;
  };

  // Run `body` inside the session transaction, or a fresh single-op
  // transaction when none is open (defined at the bottom of this header).
  // `mode` applies only to the fresh transaction: read-only entry points
  // pass kReadOnly so their single-op transactions pin a snapshot and skip
  // the lock manager and commit log. A session transaction's mode was fixed
  // at p_begin and is not affected.
  template <typename Fn>
  auto WithTxn(Fn&& body, TxnMode mode = TxnMode::kReadWrite)
      -> decltype(body(TxnId{}));

  // The snapshot reads as of `as_of` (kTimestampNow: `txn`'s) run under.
  Snapshot SnapFor(Timestamp as_of, TxnId txn) const;
  Result<Handle*> GetHandle(int fd);
  // Forget buffered writes / pending metadata (abort paths).
  void DiscardVolatile();

  // Chunk I/O.
  Result<int64_t> ReadAt(Handle& h, TxnId txn, int64_t offset,
                         std::span<std::byte> out);
  Result<int64_t> WriteAt(Handle& h, TxnId txn, int64_t offset,
                          std::span<const std::byte> in);
  Status LoadChunk(Handle& h, TxnId txn, int64_t chunkno);
  Status FlushChunk(Handle& h, TxnId txn);
  Status FlushMetadata(Handle& h, TxnId txn);
  // Number of valid bytes chunk `chunkno` holds given file size `size`.
  static int64_t ChunkValidBytes(int64_t size, int64_t chunkno);

  // The parent directory and name of a new entry at `path`, once the
  // namespace tables are locked and the name is free.
  Result<std::pair<Oid, std::string>> PrepareEntry(TxnId txn, const std::string& path);
  Status CloseInternal(int fd, TxnId txn);
  Status FlushAllHandles(TxnId txn);

  InversionFs* fs_;
  TxnId txn_ = kInvalidTxn;
  std::map<int, Handle> fds_;
  int next_fd_ = 3;  // tip of the hat to stdin/stdout/stderr
};

namespace internal {
inline ErrorCode StatusCodeOf(const Status& s) { return s.code(); }
template <typename T>
ErrorCode StatusCodeOf(const Result<T>& r) {
  return r.status().code();
}
}  // namespace internal

template <typename Fn>
auto InvSession::WithTxn(Fn&& body, TxnMode mode) -> decltype(body(TxnId{})) {
  if (txn_ != kInvalidTxn) {
    auto result = body(txn_);
    if (internal::StatusCodeOf(result) == ErrorCode::kDeadlock) {
      // The lock manager chose this transaction as the deadlock victim and
      // the database already aborted it; the session must not keep using the
      // dead xid.
      txn_ = kInvalidTxn;
      DiscardVolatile();
    }
    return result;
  }
  auto txn_or = fs_->db().Begin(mode);
  if (!txn_or.ok()) {
    return txn_or.status();
  }
  const TxnId txn = *txn_or;
  auto result = body(txn);
  if (result.ok()) {
    // Single-op transaction: everything buffered must reach the database now.
    // Read-only transactions have nothing to flush by construction: dirty
    // handle buffers only exist inside an open session transaction, and this
    // path only runs when none is open.
    if (mode == TxnMode::kReadWrite) {
      Status flush = FlushAllHandles(txn);
      if (!flush.ok()) {
        (void)fs_->db().Abort(txn);
        DiscardVolatile();
        return flush;
      }
    }
    Status commit = fs_->db().Commit(txn);
    if (!commit.ok()) {
      return commit;
    }
  } else {
    (void)fs_->db().Abort(txn);
    DiscardVolatile();
  }
  return result;
}

}  // namespace invfs
