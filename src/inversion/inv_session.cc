// InvSession: the client-visible file API (Figure 2 of the paper), and the
// chunk reads it shares with the file functions.

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "src/inversion/inv_fs.h"
#include "src/obs/span.h"
#include "src/obs/tenant.h"
#include "src/util/lzss.h"

namespace invfs {
namespace {

Result<std::pair<std::string, std::string>> SplitParentPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: '" + path + "'");
  }
  size_t end = path.size();
  while (end > 1 && path[end - 1] == '/') {
    --end;
  }
  const size_t slash = path.rfind('/', end - 1);
  if (slash == std::string::npos || end <= slash + 1) {
    return Status::InvalidArgument("path has no final component: '" + path + "'");
  }
  std::string dir = slash == 0 ? "/" : path.substr(0, slash);
  std::string base = path.substr(slash + 1, end - slash - 1);
  return std::make_pair(std::move(dir), std::move(base));
}

}  // namespace

InvSession::~InvSession() {
  if (txn_ != kInvalidTxn) {
    (void)fs_->db().Abort(txn_);
    DiscardVolatile();
  }
}

Snapshot InvSession::SnapFor(Timestamp as_of, TxnId txn) const {
  if (as_of != kTimestampNow) {
    return fs_->db().SnapshotAt(as_of);
  }
  // Pinned begin-time snapshot until the transaction writes; reads take no
  // data locks under it, so writers never block this handle's reads.
  return fs_->db().ReadSnapshot(txn);
}

Result<InvSession::Handle*> InvSession::GetHandle(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Status::InvalidArgument("bad file descriptor " + std::to_string(fd));
  }
  return &it->second;
}

void InvSession::DiscardVolatile() {
  for (auto& [fd, h] : fds_) {
    h.buffer_dirty = false;
    h.buffered_chunk = -1;
    h.meta_dirty = false;
  }
}

// ------------------------------------------------------------- transactions

Status InvSession::p_begin() {
  ScopedSpan span(fs_->spans_, "p_begin");
  if (txn_ != kInvalidTxn) {
    return Status::InvalidArgument(
        "transaction already active (nested transactions are not supported)");
  }
  INV_ASSIGN_OR_RETURN(txn_, fs_->db().Begin());
  return Status::Ok();
}

Status InvSession::p_commit() {
  ScopedSpan span(fs_->spans_, "p_commit");
  const Status status = [&] {
    if (txn_ == kInvalidTxn) {
      return Status::InvalidArgument("no transaction active");
    }
    Status flush = FlushAllHandles(txn_);
    if (!flush.ok()) {
      (void)p_abort();
      return flush;
    }
    const TxnId txn = txn_;
    txn_ = kInvalidTxn;
    return fs_->db().Commit(txn);
  }();
  fs_->FinishOp(span, TenantOp::kCommit, status.ok());
  return status;
}

Status InvSession::p_abort() {
  ScopedSpan span(fs_->spans_, "p_abort");
  if (txn_ == kInvalidTxn) {
    return Status::InvalidArgument("no transaction active");
  }
  const TxnId txn = txn_;
  txn_ = kInvalidTxn;
  DiscardVolatile();
  Status status = fs_->db().Abort(txn);
  // Sizes seen through open fds may reflect aborted writes; refresh them.
  const Snapshot snap{kTimestampNow, kInvalidTxn, &fs_->db().txns().log(), nullptr};
  for (auto& [fd, h] : fds_) {
    if (h.as_of == kTimestampNow) {
      if (auto att = fs_->FileattLookup(h.file, snap); att.ok() && att->has_value()) {
        h.size = (*att)->second.size;
      }
    }
  }
  return status;
}

Status InvSession::FlushAllHandles(TxnId txn) {
  for (auto& [fd, h] : fds_) {
    INV_RETURN_IF_ERROR(FlushChunk(h, txn));
    INV_RETURN_IF_ERROR(FlushMetadata(h, txn));
  }
  return Status::Ok();
}

// --------------------------------------------------------------------- files

Result<int> InvSession::p_creat(const std::string& path, CreatOptions options) {
  ScopedSpan span(fs_->spans_, "p_creat");
  auto result = WithTxn([&](TxnId txn) -> Result<int> {
    INV_ASSIGN_OR_RETURN(auto entry, PrepareEntry(txn, path));
    INV_ASSIGN_OR_RETURN(TypeInfo * type, fs_->db().catalog().GetType(options.type));
    if (!fs_->db().devices().Has(options.device)) {
      return Status::InvalidArgument("no device " + std::to_string(options.device));
    }

    // "For every file, a uniquely-named table is created" — inv<oid>, located
    // on the device encoded in the create mode, plus its chunk-number index.
    const Oid oid = fs_->db().catalog().AllocateOid();
    INV_ASSIGN_OR_RETURN(
        TableInfo * chunk_table,
        fs_->db().catalog().CreateTable(txn, ChunkTableName(oid), ChunkTableSchema(),
                                        options.device));
    IndexInfo* chunk_index = nullptr;
    if (fs_->options_.maintain_chunk_index) {
      INV_ASSIGN_OR_RETURN(chunk_index,
                           fs_->db().catalog().CreateIndex(txn, chunk_table, {0}));
    }

    int32_t flags = 0;
    if (options.compressed) {
      flags |= kInvFlagCompressed;
    }
    if (!options.keep_history) {
      flags |= kInvFlagNoHistory;
    }
    INV_RETURN_IF_ERROR(fs_->InsertEntry(txn, entry.first, entry.second, oid,
                                         options.owner, type->oid, options.device, flags));

    Handle h;
    h.file = oid;
    h.chunk_table = chunk_table;
    h.chunk_index = chunk_index;
    h.writable = true;
    h.compressed = options.compressed;
    h.buffer.resize(kInvChunkSize);
    const int fd = next_fd_++;
    fds_[fd] = std::move(h);
    return fd;
  });
  fs_->FinishOp(span, TenantOp::kCreat, result.ok());
  return result;
}

Result<int> InvSession::p_open(const std::string& path, OpenMode mode,
                               Timestamp as_of) {
  ScopedSpan span(fs_->spans_, "p_open");
  auto result = WithTxn([&](TxnId txn) -> Result<int> {
    if (as_of != kTimestampNow && mode == OpenMode::kWrite) {
      // "Historical files may not be opened for writing."
      return Status::ReadOnly("cannot open historical state for writing: " + path);
    }
    const Snapshot snap = SnapFor(as_of, txn);
    INV_ASSIGN_OR_RETURN(Oid oid, fs_->ResolvePath(path, snap));
    INV_ASSIGN_OR_RETURN(auto att, fs_->FileattLookup(oid, snap));
    if (!att.has_value()) {
      return Status::NotFound("no attributes for " + path);
    }
    const FileAtt& a = att->second;
    if (a.type == fs_->dir_type_oid_) {
      return Status::InvalidArgument(path + " is a directory");
    }
    // Chunk tables survive unlink (that is what makes undelete-via-time-travel
    // work), so historical opens find the handle in the current catalog cache.
    auto chunk_table = fs_->db().catalog().GetTable(ChunkTableName(oid));
    if (!chunk_table.ok()) {
      return Status::NotFound("data table missing for " + path);
    }

    Handle h;
    h.file = oid;
    h.chunk_table = *chunk_table;
    h.chunk_index =
        (*chunk_table)->indexes.empty() ? nullptr : (*chunk_table)->indexes[0];
    h.writable = mode == OpenMode::kWrite;
    h.as_of = as_of;
    h.compressed = (a.flags & kInvFlagCompressed) != 0;
    h.size = a.size;
    h.chunks_at_open = (h.size + kInvChunkSize - 1) / kInvChunkSize;
    h.buffer.resize(kInvChunkSize);
    if (h.writable) {
      INV_RETURN_IF_ERROR(
          fs_->db().LockTable(txn, h.chunk_table, LockMode::kExclusive));
    }
    const int fd = next_fd_++;
    fds_[fd] = std::move(h);
    return fd;
  },
  // A read-mode open never locks; its single-op transaction (when the
  // session has none) can be read-only, which keeps historical and plain
  // read opens off the lock manager and the commit log entirely.
  mode == OpenMode::kWrite ? TxnMode::kReadWrite : TxnMode::kReadOnly);
  fs_->FinishOp(span, TenantOp::kOpen, result.ok());
  return result;
}

Status InvSession::CloseInternal(int fd, TxnId txn) {
  INV_ASSIGN_OR_RETURN(Handle * h, GetHandle(fd));
  INV_RETURN_IF_ERROR(FlushChunk(*h, txn));
  INV_RETURN_IF_ERROR(FlushMetadata(*h, txn));
  fds_.erase(fd);
  return Status::Ok();
}

Status InvSession::p_close(int fd) {
  ScopedSpan span(fs_->spans_, "p_close");
  return WithTxn([&](TxnId txn) { return CloseInternal(fd, txn); });
}

Result<int64_t> InvSession::p_lseek(int fd, int64_t offset, Whence whence) {
  INV_ASSIGN_OR_RETURN(Handle * h, GetHandle(fd));
  int64_t base = 0;
  switch (whence) {
    case Whence::kSet:
      base = 0;
      break;
    case Whence::kCur:
      base = h->offset;
      break;
    case Whence::kEnd:
      base = h->size;
      break;
  }
  const int64_t target = base + offset;
  if (target < 0 || target > kInvMaxFileSize) {
    return Status::InvalidArgument("seek offset out of range");
  }
  h->offset = target;
  return target;
}

Result<FileStat> InvSession::p_fstat(int fd) {
  INV_ASSIGN_OR_RETURN(Handle * h, GetHandle(fd));
  return WithTxn(
      [&](TxnId txn) -> Result<FileStat> {
        INV_ASSIGN_OR_RETURN(FileStat st, fs_->StatOid(h->file, SnapFor(h->as_of, txn)));
        if (h->meta_dirty) {
          st.size = h->size;  // uncommitted writes are visible to their author
          st.mtime = h->pending_mtime;
        }
        return st;
      },
      TxnMode::kReadOnly);
}

// ----------------------------------------------------------------- chunk I/O

int64_t InvSession::ChunkValidBytes(int64_t size, int64_t chunkno) {
  const int64_t start = chunkno * static_cast<int64_t>(kInvChunkSize);
  return std::clamp<int64_t>(size - start, 0, kInvChunkSize);
}

template <typename Fn>
Result<bool> InversionFs::VisitChunks(Oid file, const TableInfo* table,
                                      const IndexInfo* index,
                                      std::optional<int64_t> chunkno,
                                      const Snapshot& snap, Fn&& fn) {
  // Covers the whole chunk lookup — index descent, heap visit, decompression
  // — so an entry point's self-time shrinks to offset arithmetic. A
  // whole-file pass (the file functions) records none.
  ScopedSpan span(chunkno.has_value() ? spans_ : nullptr, "file.fetch_chunk", file,
                  static_cast<uint64_t>(chunkno.value_or(0)));
  // Compressed versions (tid, chunkno, raw length, packed bytes), held for
  // decompression once the page latch is gone.
  std::vector<std::tuple<Tid, int64_t, size_t, Blob>> packed;
  // Runs under the page latch with the bytes of a visible version; true
  // once it has served the one chunk asked for.
  auto visit = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    std::array<ColumnView, 4> cols;
    INV_RETURN_IF_ERROR(ViewColumns(table->schema, tuple, cols));
    const int64_t no = cols[0].null ? -1 : cols[0].Int4();
    if (chunkno.has_value() && no != *chunkno) {
      return false;  // the scans offer every chunk's versions
    }
    // The chunk record rule invfs_check applies too (self-identification as
    // a media corruption defense, and a length the callers' one-chunk
    // buffers hold).
    const ChunkFields fields = ChunkFields::Of(cols);
    if (const std::string_view fault = ChunkRecordFault(file, fields); !fault.empty()) {
      return Status::Corruption(std::string(fault) + " in file " + std::to_string(file) +
                                " chunk " + std::to_string(no));
    }
    if (!cols[3].null) {
      packed.emplace_back(tid, no, fields.length,
                          Blob(cols[1].bytes.begin(), cols[1].bytes.end()));
    } else {
      INV_RETURN_IF_ERROR(fn(tid, no, cols[1].bytes));
    }
    return chunkno.has_value();
  };
  // Without a chunk index (the ablation) a chunk lookup scans the heap: this
  // is what the paper's B-tree buys.
  const BtreeKey key =
      chunkno.has_value() ? EncodeInt4Key(static_cast<int32_t>(*chunkno)) : BtreeKey{};
  INV_ASSIGN_OR_RETURN(
      const bool found,
      db_->VisitVersions(table, index, key, Database::KeyMatch::kExact, snap, visit));
  for (const auto& [tid, no, rawlen, bytes] : packed) {
    INV_ASSIGN_OR_RETURN(Blob raw, LzssDecompress(bytes, rawlen));
    INV_RETURN_IF_ERROR(fn(tid, no, std::span<const std::byte>(raw)));
  }
  return found;
}

Result<std::vector<std::byte>> InversionFs::ReadWholeFile(Oid file,
                                                          const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
  if (!att.has_value()) {
    return Status::NotFound("file oid " + std::to_string(file));
  }
  const int64_t size = att->second.size;
  auto table = db_->catalog().GetTable(ChunkTableName(file));
  if (!table.ok()) {
    // Directories (and other non-file objects) have no data table; content
    // functions applied to them see empty contents. Real POSTGRES would have
    // rejected the call via type checking before it got here.
    return std::vector<std::byte>{};
  }
  std::vector<std::byte> out(static_cast<size_t>(size));
  auto place = [&](Tid, int64_t chunkno, std::span<const std::byte> data) {
    const int64_t at = chunkno * static_cast<int64_t>(kInvChunkSize);
    if (at < size) {
      std::copy_n(data.begin(), std::min(static_cast<int64_t>(data.size()), size - at),
                  out.begin() + at);
    }
    return Status::Ok();
  };
  // One pass over every chunk version, not a probe per chunk: the
  // index-less configuration stays linear.
  INV_RETURN_IF_ERROR(
      VisitChunks(file, *table, nullptr, std::nullopt, snap, place).status());
  return out;
}

Status InvSession::LoadChunk(Handle& h, TxnId txn, int64_t chunkno) {
  INV_CHECK(h.buffered_chunk == -1 || !h.buffer_dirty);
  std::fill(h.buffer.begin(), h.buffer.end(), std::byte{0});
  h.buffered_chunk = chunkno;
  h.buffer_len = 0;
  h.buffer_dirty = false;
  const Snapshot snap = SnapFor(h.as_of, txn);
  auto copy_in = [&](Tid, int64_t, std::span<const std::byte> data) {
    std::copy(data.begin(), data.end(), h.buffer.begin());
    h.buffer_len = static_cast<int64_t>(data.size());
    return Status::Ok();
  };
  return fs_->VisitChunks(h.file, h.chunk_table, h.chunk_index, chunkno, snap, copy_in)
      .status();
}

Status InvSession::FlushChunk(Handle& h, TxnId txn) {
  if (!h.buffer_dirty) {
    return Status::Ok();
  }
  ScopedSpan span(fs_->spans_, "file.flush_chunk", h.file,
                  static_cast<uint64_t>(h.buffered_chunk));
  const int64_t chunkno = h.buffered_chunk;
  const int64_t valid = std::max(h.buffer_len, ChunkValidBytes(h.size, chunkno));
  Blob content(h.buffer.begin(), h.buffer.begin() + valid);
  Value data_value = Value::Null();
  Value rawlen_value = Value::Null();
  if (h.compressed) {
    Blob packed = LzssCompress(content);
    if (packed.size() < content.size()) {
      data_value = Value::Bytes(std::move(packed));
      rawlen_value = Value::Int4(static_cast<int32_t>(valid));
    }
  }
  if (data_value.is_null()) {
    data_value = Value::Bytes(std::move(content));
  }
  Row row{Value::Int4(static_cast<int32_t>(chunkno)), std::move(data_value),
          Value::Int8(ChunkSelfIdent(h.file, chunkno)), std::move(rawlen_value)};

  INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, h.chunk_table, LockMode::kExclusive));
  const Snapshot snap = fs_->db().SnapshotFor(txn);
  // Without the chunk index, probing for an existing record costs a full
  // table scan; skip it when this chunk verifiably never existed. (With the
  // index the probe is cheap and always performed.)
  std::optional<Tid> existing;
  const bool may_exist = h.chunk_index != nullptr ||
                         chunkno < h.chunks_at_open ||
                         h.flushed_chunks.contains(chunkno);
  if (may_exist) {
    auto note_tid = [&](Tid tid, int64_t, std::span<const std::byte>) {
      existing = tid;
      return Status::Ok();
    };
    INV_RETURN_IF_ERROR(
        fs_->VisitChunks(h.file, h.chunk_table, h.chunk_index, chunkno, snap, note_tid)
            .status());
  }
  if (existing.has_value()) {
    // "the old record is marked as deleted by the current transaction, and
    // the new record is marked as inserted by the current transaction."
    INV_RETURN_IF_ERROR(
        fs_->db().ReplaceRow(txn, h.chunk_table, *existing, row).status());
  } else {
    INV_RETURN_IF_ERROR(fs_->db().InsertRow(txn, h.chunk_table, row).status());
  }
  h.buffer_dirty = false;
  h.buffer_len = valid;
  h.flushed_chunks.insert(chunkno);
  return Status::Ok();
}

Status InvSession::FlushMetadata(Handle& h, TxnId txn) {
  if (!h.meta_dirty) {
    return Status::Ok();
  }
  INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->fileatt_, LockMode::kExclusive));
  const Snapshot snap = fs_->db().SnapshotFor(txn);
  INV_ASSIGN_OR_RETURN(auto att, fs_->FileattLookup(h.file, snap));
  if (!att.has_value()) {
    return Status::NotFound("fileatt row vanished for oid " + std::to_string(h.file));
  }
  FileAtt updated = att->second;
  updated.size = h.size;
  updated.mtime = h.pending_mtime;
  INV_RETURN_IF_ERROR(
      fs_->db().ReplaceRow(txn, fs_->fileatt_, att->first, updated.ToRow()).status());
  h.meta_dirty = false;
  return Status::Ok();
}

Result<int64_t> InvSession::ReadAt(Handle& h, TxnId txn, int64_t offset,
                                   std::span<std::byte> out) {
  if (offset >= h.size) {
    return 0;
  }
  const int64_t want =
      std::min<int64_t>(static_cast<int64_t>(out.size()), h.size - offset);
  int64_t done = 0;
  const Snapshot snap = SnapFor(h.as_of, txn);
  while (done < want) {
    const int64_t pos = offset + done;
    const int64_t chunkno = pos / kInvChunkSize;
    const int64_t within = pos % kInvChunkSize;
    const int64_t n = std::min<int64_t>(kInvChunkSize - within, want - done);
    std::byte* dst = out.data() + done;
    if (h.buffered_chunk == chunkno) {
      std::memcpy(dst, h.buffer.data() + within, n);
    } else {
      // The one copy: from the heap page straight into the caller's buffer.
      // Bytes past the chunk's stored length, or a whole missing chunk (a
      // hole in a sparse file), read as zeros.
      int64_t copied = 0;
      auto copy_out = [&](Tid, int64_t, std::span<const std::byte> data) {
        copied = std::clamp<int64_t>(static_cast<int64_t>(data.size()) - within, 0, n);
        if (copied > 0) {
          std::memcpy(dst, data.data() + within, copied);
        }
        return Status::Ok();
      };
      INV_RETURN_IF_ERROR(
          fs_->VisitChunks(h.file, h.chunk_table, h.chunk_index, chunkno, snap, copy_out)
              .status());
      std::memset(dst + copied, 0, n - copied);
    }
    done += n;
  }
  // Model the buffer-allocate-and-copy CPU cost the paper's profiling found.
  fs_->db().clock().Advance(
      fs_->db().options().cpu.syscall_us +
      (static_cast<uint64_t>(done) * fs_->db().options().cpu.copy_per_kilobyte_us) /
          1024);
  return done;
}

Result<int64_t> InvSession::WriteAt(Handle& h, TxnId txn, int64_t offset,
                                    std::span<const std::byte> in) {
  if (!h.writable) {  // historical handles never are
    return Status::ReadOnly("file descriptor is not writable");
  }
  if (offset + static_cast<int64_t>(in.size()) > kInvMaxFileSize) {
    return Status::InvalidArgument("write would exceed maximum file size");
  }
  INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, h.chunk_table, LockMode::kExclusive));
  int64_t done = 0;
  const int64_t total = static_cast<int64_t>(in.size());
  while (done < total) {
    const int64_t pos = offset + done;
    const int64_t chunkno = pos / kInvChunkSize;
    const int64_t within = pos % kInvChunkSize;
    const int64_t n = std::min<int64_t>(kInvChunkSize - within, total - done);
    if (h.buffered_chunk != chunkno) {
      INV_RETURN_IF_ERROR(FlushChunk(h, txn));
      h.buffered_chunk = -1;
      if (within == 0 && n == kInvChunkSize) {
        // Full-chunk overwrite: no need to read the old contents. (The old
        // *version* still gets its xmax stamped at flush time.)
        std::fill(h.buffer.begin(), h.buffer.end(), std::byte{0});
        h.buffered_chunk = chunkno;
        h.buffer_len = 0;
        h.buffer_dirty = false;
      } else {
        INV_RETURN_IF_ERROR(LoadChunk(h, txn, chunkno));
      }
    }
    std::memcpy(h.buffer.data() + within, in.data() + done, n);
    h.buffer_len = std::max(h.buffer_len, within + n);
    h.buffer_dirty = true;
    done += n;
    // "Multiple small sequential writes during a single transaction are
    // coalesced" — with coalescing off, every write becomes its own record
    // replacement (the ablation measures what that costs).
    if (!fs_->options_.coalesce_writes) {
      INV_RETURN_IF_ERROR(FlushChunk(h, txn));
    }
  }
  h.size = std::max(h.size, offset + total);
  h.meta_dirty = true;
  h.pending_mtime = fs_->db().Now();
  fs_->db().clock().Advance(
      fs_->db().options().cpu.syscall_us +
      (static_cast<uint64_t>(total) * fs_->db().options().cpu.copy_per_kilobyte_us) /
          1024);
  return total;
}

Result<int64_t> InvSession::p_read(int fd, std::span<std::byte> buf) {
  ScopedSpan span(fs_->spans_, "p_read");
  auto result = [&]() -> Result<int64_t> {
    INV_ASSIGN_OR_RETURN(Handle * h, GetHandle(fd));
    // No table lock: reads run against the transaction's pinned snapshot
    // (SnapFor), so a writer's uncommitted chunk versions are invisible and
    // a writer's exclusive lock never blocks this read.
    return WithTxn(
        [&](TxnId txn) -> Result<int64_t> {
          INV_ASSIGN_OR_RETURN(int64_t n, ReadAt(*h, txn, h->offset, buf));
          h->offset += n;
          return n;
        },
        TxnMode::kReadOnly);
  }();
  fs_->FinishOp(span, TenantOp::kRead, result.ok());
  if (result.ok()) {
    if (TenantBinding* t = CurrentTenant()) {
      t->AddBytesRead(static_cast<uint64_t>(*result));
    }
  }
  return result;
}

Result<int64_t> InvSession::p_write(int fd, std::span<const std::byte> buf) {
  ScopedSpan span(fs_->spans_, "p_write");
  auto result = [&]() -> Result<int64_t> {
    INV_ASSIGN_OR_RETURN(Handle * h, GetHandle(fd));
    return WithTxn([&](TxnId txn) -> Result<int64_t> {
      INV_ASSIGN_OR_RETURN(int64_t n, WriteAt(*h, txn, h->offset, buf));
      h->offset += n;
      return n;
    });
  }();
  fs_->FinishOp(span, TenantOp::kWrite, result.ok());
  if (result.ok()) {
    if (TenantBinding* t = CurrentTenant()) {
      t->AddBytesWritten(static_cast<uint64_t>(*result));
    }
  }
  return result;
}

// ----------------------------------------------------------------- namespace

Result<std::pair<Oid, std::string>> InvSession::PrepareEntry(TxnId txn,
                                                             const std::string& path) {
  const Snapshot snap = fs_->db().SnapshotFor(txn);
  INV_ASSIGN_OR_RETURN(auto split, SplitParentPath(path));
  INV_ASSIGN_OR_RETURN(Oid parent, fs_->ResolvePath(split.first, snap));
  INV_ASSIGN_OR_RETURN(FileStat parent_stat, fs_->StatOid(parent, snap));
  if (!parent_stat.is_directory) {
    return Status::InvalidArgument(split.first + " is not a directory");
  }
  INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->naming_, LockMode::kExclusive));
  INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->fileatt_, LockMode::kExclusive));
  INV_ASSIGN_OR_RETURN(auto existing, fs_->NamingLookup(parent, split.second, snap));
  if (existing.has_value()) {
    return Status::AlreadyExists(path);
  }
  return std::make_pair(parent, std::move(split.second));
}

Status InvSession::mkdir(const std::string& path) {
  ScopedSpan span(fs_->spans_, "mkdir");
  return WithTxn([&](TxnId txn) -> Status {
    INV_ASSIGN_OR_RETURN(auto entry, PrepareEntry(txn, path));
    const Oid oid = fs_->db().catalog().AllocateOid();
    return fs_->InsertEntry(txn, entry.first, entry.second, oid, "root",
                            fs_->dir_type_oid_, kDeviceMagneticDisk, 0);
  });
}

Status InvSession::unlink(const std::string& path) {
  ScopedSpan span(fs_->spans_, "unlink");
  return WithTxn([&](TxnId txn) -> Status {
    const Snapshot snap = fs_->db().SnapshotFor(txn);
    INV_ASSIGN_OR_RETURN(auto split, SplitParentPath(path));
    INV_ASSIGN_OR_RETURN(Oid parent, fs_->ResolvePath(split.first, snap));
    INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->naming_, LockMode::kExclusive));
    INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->fileatt_, LockMode::kExclusive));
    INV_ASSIGN_OR_RETURN(auto entry, fs_->NamingLookup(parent, split.second, snap));
    if (!entry.has_value()) {
      return Status::NotFound(path);
    }
    const Oid oid = entry->second.file;
    INV_ASSIGN_OR_RETURN(FileStat st, fs_->StatOid(oid, snap));
    if (st.is_directory) {
      INV_ASSIGN_OR_RETURN(auto entries, fs_->ListDirectory(oid, snap));
      if (!entries.empty()) {
        return Status::InvalidArgument(path + " is a non-empty directory");
      }
    }
    // Only the namespace and attribute rows die; the chunk table — and every
    // historical version in it — survives, which is precisely what lets a
    // user "undelete files removed accidentally" via time travel.
    INV_RETURN_IF_ERROR(fs_->db().DeleteRow(txn, fs_->naming_, (*entry).first));
    INV_ASSIGN_OR_RETURN(auto att, fs_->FileattLookup(oid, snap));
    if (att.has_value()) {
      INV_RETURN_IF_ERROR(fs_->db().DeleteRow(txn, fs_->fileatt_, (*att).first));
    }
    return Status::Ok();
  });
}

Status InvSession::rename(const std::string& from, const std::string& to) {
  ScopedSpan span(fs_->spans_, "rename");
  return WithTxn([&](TxnId txn) -> Status {
    const Snapshot snap = fs_->db().SnapshotFor(txn);
    INV_ASSIGN_OR_RETURN(auto from_split, SplitParentPath(from));
    INV_ASSIGN_OR_RETURN(auto to_split, SplitParentPath(to));
    INV_ASSIGN_OR_RETURN(Oid from_parent, fs_->ResolvePath(from_split.first, snap));
    INV_ASSIGN_OR_RETURN(Oid to_parent, fs_->ResolvePath(to_split.first, snap));
    INV_RETURN_IF_ERROR(fs_->db().LockTable(txn, fs_->naming_, LockMode::kExclusive));
    INV_ASSIGN_OR_RETURN(auto entry,
                         fs_->NamingLookup(from_parent, from_split.second, snap));
    if (!entry.has_value()) {
      return Status::NotFound(from);
    }
    INV_ASSIGN_OR_RETURN(auto clash,
                         fs_->NamingLookup(to_parent, to_split.second, snap));
    if (clash.has_value()) {
      return Status::AlreadyExists(to);
    }
    NamingEntry updated = entry->second;
    updated.filename = to_split.second;
    updated.parent = to_parent;
    return fs_->db().ReplaceRow(txn, fs_->naming_, entry->first, updated.ToRow()).status();
  });
}

Result<FileStat> InvSession::stat(const std::string& path, Timestamp as_of) {
  ScopedSpan span(fs_->spans_, "stat");
  return WithTxn(
      [&](TxnId txn) { return fs_->StatPath(path, SnapFor(as_of, txn)); },
      TxnMode::kReadOnly);
}

Result<std::vector<DirEntry>> InvSession::readdir(const std::string& path,
                                                  Timestamp as_of) {
  ScopedSpan span(fs_->spans_, "readdir");
  return WithTxn(
      [&](TxnId txn) -> Result<std::vector<DirEntry>> {
        const Snapshot snap = SnapFor(as_of, txn);
        INV_ASSIGN_OR_RETURN(Oid dir, fs_->ResolvePath(path, snap));
        INV_ASSIGN_OR_RETURN(FileStat st, fs_->StatOid(dir, snap));
        if (!st.is_directory) {
          return Status::InvalidArgument(path + " is not a directory");
        }
        return fs_->ListDirectory(dir, snap);
      },
      TxnMode::kReadOnly);
}

}  // namespace invfs
