#include "src/inversion/inv_fs.h"

#include <algorithm>

#include "src/obs/span.h"
#include "src/obs/tenant.h"
#include "src/query/parser.h"
#include "src/util/lzss.h"

namespace invfs {
namespace {

Schema NamingSchema() {
  return Schema{{"filename", TypeId::kText},
                {"parentid", TypeId::kOid},
                {"file", TypeId::kOid}};
}

Schema FileattSchema() {
  return Schema{{"file", TypeId::kOid},      {"owner", TypeId::kText},
                {"type", TypeId::kOid},      {"size", TypeId::kInt8},
                {"ctime", TypeId::kTimestamp}, {"mtime", TypeId::kTimestamp},
                {"atime", TypeId::kTimestamp}, {"device", TypeId::kInt4},
                {"flags", TypeId::kInt4}};
}

// Split "/a/b/c" into {"a","b","c"}. "" and "/" yield {}.
Result<std::vector<std::string>> SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: '" + path + "'");
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) {
      j = path.size();
    }
    if (j > i) {
      parts.push_back(path.substr(i, j - i));
    }
    i = j + 1;
  }
  return parts;
}

}  // namespace

InversionFs::InversionFs(Database* db, InvOptions options)
    : db_(db), options_(options) {
  rules_ = std::make_unique<RuleEngine>(db_, &registry_);
  vacuum_ = std::make_unique<VacuumCleaner>(db_);
  ExecutorHooks hooks;
  hooks.on_define_rule = [this](const Statement& stmt, TxnId txn) {
    return rules_->DefineFromStatement(stmt, txn);
  };
  hooks.on_vacuum = [this](const std::string& table, TxnId txn) -> Status {
    INV_ASSIGN_OR_RETURN(TableInfo * info, db_->catalog().GetTable(table));
    return vacuum_->VacuumTable(txn, info).status();
  };
  executor_ = std::make_unique<Executor>(db_, &registry_, std::move(hooks));
  MetricsRegistry& metrics = db_->metrics();
  spans_ = &metrics.spans();
  lat_open_ = metrics.GetHistogram("op.latency_us", "p_open");
  lat_creat_ = metrics.GetHistogram("op.latency_us", "p_creat");
  lat_read_ = metrics.GetHistogram("op.latency_us", "p_read");
  lat_write_ = metrics.GetHistogram("op.latency_us", "p_write");
  lat_commit_ = metrics.GetHistogram("op.latency_us", "p_commit");
  lat_query_ = metrics.GetHistogram("op.latency_us", "query");
}

InversionFs::~InversionFs() = default;

Status InversionFs::Mount() {
  INV_ASSIGN_OR_RETURN(TxnId txn, db_->Begin());
  Status status = [&]() -> Status {
    // Namespace tables.
    auto naming = db_->catalog().GetTable("naming");
    if (naming.ok()) {
      naming_ = *naming;
      INV_ASSIGN_OR_RETURN(fileatt_, db_->catalog().GetTable("fileatt"));
    } else {
      INV_ASSIGN_OR_RETURN(naming_, db_->catalog().CreateTable(
                                        txn, "naming", NamingSchema(),
                                        kDeviceMagneticDisk));
      INV_ASSIGN_OR_RETURN(fileatt_, db_->catalog().CreateTable(
                                         txn, "fileatt", FileattSchema(),
                                         kDeviceMagneticDisk));
      // "Various Btree indices on the naming table speed up these operations."
      INV_RETURN_IF_ERROR(db_->catalog().CreateIndex(txn, naming_, {1, 0}).status());
      INV_RETURN_IF_ERROR(db_->catalog().CreateIndex(txn, naming_, {2}).status());
      INV_RETURN_IF_ERROR(db_->catalog().CreateIndex(txn, fileatt_, {0}).status());
    }
    for (IndexInfo* idx : naming_->indexes) {
      if (idx->key_columns.size() == 2) {
        naming_by_parent_name_ = idx;
      } else if (idx->key_columns == std::vector<size_t>{2}) {
        naming_by_file_ = idx;
      }
    }
    for (IndexInfo* idx : fileatt_->indexes) {
      if (idx->key_columns == std::vector<size_t>{0}) {
        fileatt_by_file_ = idx;
      }
    }
    if (naming_by_parent_name_ == nullptr || fileatt_by_file_ == nullptr) {
      return Status::Internal("inversion indices missing");
    }

    // Types.
    auto dir_type = db_->catalog().GetType("directory");
    if (dir_type.ok()) {
      dir_type_oid_ = (*dir_type)->oid;
    } else {
      INV_ASSIGN_OR_RETURN(dir_type_oid_, db_->catalog().DefineType(txn, "directory"));
    }
    auto file_type = db_->catalog().GetType("file");
    if (file_type.ok()) {
      file_type_oid_ = (*file_type)->oid;
    } else {
      INV_ASSIGN_OR_RETURN(file_type_oid_, db_->catalog().DefineType(txn, "file"));
    }

    // Root directory: "The root directory, named '/', appears in every
    // POSTGRES database as shipped from Berkeley."
    const Snapshot snap = db_->SnapshotFor(txn);
    INV_ASSIGN_OR_RETURN(auto root, NamingLookup(kInvalidOid, "/", snap));
    if (root.has_value()) {
      root_oid_ = (*root).second[2].AsOid();
    } else {
      root_oid_ = db_->catalog().AllocateOid();
      const Timestamp now = db_->Now();
      INV_RETURN_IF_ERROR(db_->InsertRow(txn, naming_,
                                         {Value::Text("/"), Value::MakeOid(kInvalidOid),
                                          Value::MakeOid(root_oid_)})
                              .status());
      INV_RETURN_IF_ERROR(
          db_->InsertRow(txn, fileatt_,
                         {Value::MakeOid(root_oid_), Value::Text("root"),
                          Value::MakeOid(dir_type_oid_), Value::Int8(0),
                          Value::MakeTimestamp(now), Value::MakeTimestamp(now),
                          Value::MakeTimestamp(now), Value::Int4(kDeviceMagneticDisk),
                          Value::Int4(0)})
              .status());
    }
    INV_RETURN_IF_ERROR(RegisterBuiltinFunctions(txn));
    return Status::Ok();
  }();
  if (!status.ok()) {
    (void)db_->Abort(txn);
    return status;
  }
  INV_RETURN_IF_ERROR(db_->Commit(txn));
  INV_RETURN_IF_ERROR(rules_->Load());
  INV_RETURN_IF_ERROR(RegisterMigrationAction());
  return Status::Ok();
}

Result<std::unique_ptr<InvSession>> InversionFs::NewSession() {
  if (naming_ == nullptr) {
    return Status::Internal("file system not mounted");
  }
  return std::make_unique<InvSession>(this);
}

// ------------------------------------------------------------------ lookups

Result<std::optional<std::pair<Tid, Row>>> InversionFs::NamingLookup(
    Oid parent, const std::string& name, const Snapshot& snap) {
  std::vector<Value> key_vals{Value::MakeOid(parent), Value::Text(name)};
  INV_ASSIGN_OR_RETURN(BtreeKey key, EncodeKey(key_vals));
  INV_ASSIGN_OR_RETURN(auto tids, naming_by_parent_name_->btree->Lookup(key));
  for (Tid tid : tids) {
    INV_ASSIGN_OR_RETURN(auto row, naming_->heap->Fetch(snap, tid));
    if (row.has_value()) {
      return std::optional(std::make_pair(tid, std::move(*row)));
    }
  }
  // Historical snapshots may need the archive (vacuumed namespace entries).
  if (snap.is_historical() && naming_->archive_oid != kInvalidOid) {
    INV_ASSIGN_OR_RETURN(TableInfo * archive,
                         db_->catalog().GetTableByOid(naming_->archive_oid));
    auto it = archive->heap->Scan(snap);
    while (it.Next()) {
      if (it.row()[1].AsOid() == parent && it.row()[0].AsText() == name) {
        return std::optional(std::make_pair(it.tid(), it.row()));
      }
    }
    INV_RETURN_IF_ERROR(it.status());
  }
  return std::optional<std::pair<Tid, Row>>();
}

Result<std::optional<std::pair<Tid, Row>>> InversionFs::FileattLookup(
    Oid file, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto tids,
                       fileatt_by_file_->btree->Lookup(EncodeOidKey(file)));
  for (Tid tid : tids) {
    INV_ASSIGN_OR_RETURN(auto row, fileatt_->heap->Fetch(snap, tid));
    if (row.has_value()) {
      return std::optional(std::make_pair(tid, std::move(*row)));
    }
  }
  if (snap.is_historical() && fileatt_->archive_oid != kInvalidOid) {
    INV_ASSIGN_OR_RETURN(TableInfo * archive,
                         db_->catalog().GetTableByOid(fileatt_->archive_oid));
    auto it = archive->heap->Scan(snap);
    while (it.Next()) {
      if (it.row()[0].AsOid() == file) {
        return std::optional(std::make_pair(it.tid(), it.row()));
      }
    }
    INV_RETURN_IF_ERROR(it.status());
  }
  return std::optional<std::pair<Tid, Row>>();
}

Result<Oid> InversionFs::ResolvePath(const std::string& path, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  Oid current = root_oid_;
  for (const std::string& part : parts) {
    INV_ASSIGN_OR_RETURN(auto entry, NamingLookup(current, part, snap));
    if (!entry.has_value()) {
      return Status::NotFound("no such file: " + path);
    }
    current = (*entry).second[2].AsOid();
  }
  return current;
}

Result<FileStat> InversionFs::StatOid(Oid file, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
  if (!att.has_value()) {
    return Status::NotFound("no attributes for file oid " + std::to_string(file));
  }
  const Row& row = (*att).second;
  FileStat st;
  st.oid = file;
  st.owner = row[kFaOwner].AsText();
  const Oid type_oid = row[kFaType].AsOid();
  if (auto type = db_->catalog().GetTypeByOid(type_oid); type.ok()) {
    st.type = (*type)->name;
  }
  st.size = row[kFaSize].AsInt8();
  st.ctime = row[kFaCtime].AsTimestamp();
  st.mtime = row[kFaMtime].AsTimestamp();
  st.atime = row[kFaAtime].AsTimestamp();
  st.device = static_cast<DeviceId>(row[kFaDevice].AsInt4());
  st.is_directory = type_oid == dir_type_oid_;
  st.compressed = (row[kFaFlags].AsInt4() & kInvFlagCompressed) != 0;
  // Name via the naming table (root keeps its "/").
  INV_ASSIGN_OR_RETURN(auto tids, naming_by_file_->btree->Lookup(EncodeOidKey(file)));
  for (Tid tid : tids) {
    INV_ASSIGN_OR_RETURN(auto row2, naming_->heap->Fetch(snap, tid));
    if (row2.has_value()) {
      st.name = (*row2)[0].AsText();
      break;
    }
  }
  return st;
}

Result<FileStat> InversionFs::StatPath(const std::string& path, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(Oid oid, ResolvePath(path, snap));
  return StatOid(oid, snap);
}

Result<std::string> InversionFs::PathOf(Oid file, const Snapshot& snap) {
  std::vector<std::string> parts;
  Oid current = file;
  int guard = 0;
  while (current != root_oid_) {
    if (++guard > 512) {
      return Status::Corruption("namespace cycle resolving oid " +
                                std::to_string(file));
    }
    INV_ASSIGN_OR_RETURN(auto tids,
                         naming_by_file_->btree->Lookup(EncodeOidKey(current)));
    bool found = false;
    for (Tid tid : tids) {
      INV_ASSIGN_OR_RETURN(auto row, naming_->heap->Fetch(snap, tid));
      if (row.has_value()) {
        parts.push_back((*row)[0].AsText());
        current = (*row)[1].AsOid();
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("orphaned file oid " + std::to_string(current));
    }
  }
  std::string path;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    path += '/';
    path += *it;
  }
  return path.empty() ? "/" : path;
}

Result<std::vector<DirEntry>> InversionFs::ListDirectory(Oid dir,
                                                         const Snapshot& snap) {
  std::vector<DirEntry> out;
  const BtreeKey prefix = EncodeOidKey(dir);
  INV_ASSIGN_OR_RETURN(auto it, naming_by_parent_name_->btree->Seek(prefix));
  while (it.Valid()) {
    const BtreeKey& key = it.key();
    if (key.size() < prefix.size() ||
        !std::equal(prefix.begin(), prefix.end(), key.begin())) {
      break;
    }
    INV_ASSIGN_OR_RETURN(auto row, naming_->heap->Fetch(snap, it.tid()));
    if (row.has_value()) {
      DirEntry entry;
      entry.name = (*row)[0].AsText();
      entry.oid = (*row)[2].AsOid();
      if (auto st = StatOid(entry.oid, snap); st.ok()) {
        entry.is_directory = st->is_directory;
      }
      out.push_back(std::move(entry));
    }
    INV_RETURN_IF_ERROR(it.Advance());
  }
  // Historical listings may include vacuumed-away entries in the archive.
  if (snap.is_historical() && naming_->archive_oid != kInvalidOid) {
    INV_ASSIGN_OR_RETURN(TableInfo * archive,
                         db_->catalog().GetTableByOid(naming_->archive_oid));
    auto scan = archive->heap->Scan(snap);
    while (scan.Next()) {
      if (scan.row()[1].AsOid() == dir) {
        DirEntry entry;
        entry.name = scan.row()[0].AsText();
        entry.oid = scan.row()[2].AsOid();
        if (auto st = StatOid(entry.oid, snap); st.ok()) {
          entry.is_directory = st->is_directory;
        }
        out.push_back(std::move(entry));
      }
    }
    INV_RETURN_IF_ERROR(scan.status());
  }
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

Result<std::vector<std::byte>> InversionFs::ReadWholeFile(Oid file,
                                                          const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
  if (!att.has_value()) {
    return Status::NotFound("file oid " + std::to_string(file));
  }
  const int64_t size = (*att).second[kFaSize].AsInt8();
  const bool compressed =
      ((*att).second[kFaFlags].AsInt4() & kInvFlagCompressed) != 0;
  auto table_or = db_->catalog().GetTable(ChunkTableName(file));
  if (!table_or.ok()) {
    // Directories (and other non-file objects) have no data table; content
    // functions applied to them see empty contents. Real POSTGRES would have
    // rejected the call via type checking before it got here.
    return std::vector<std::byte>{};
  }
  TableInfo* table = *table_or;
  std::vector<std::byte> out(static_cast<size_t>(size));
  // A single ordered index scan beats per-chunk probes for whole-file reads.
  auto scan = table->heap->Scan(snap);
  while (scan.Next()) {
    const Row& row = scan.row();
    const int64_t chunkno = row[0].AsInt4();
    const Blob& data = row[1].AsBytes();
    const int64_t at = chunkno * static_cast<int64_t>(kInvChunkSize);
    if (at >= size) {
      continue;
    }
    Blob raw;
    const Blob* src = &data;
    if (compressed && !row[3].is_null()) {
      INV_ASSIGN_OR_RETURN(raw, LzssDecompress(data, static_cast<size_t>(row[3].AsInt4())));
      src = &raw;
    }
    const int64_t n = std::min<int64_t>(static_cast<int64_t>(src->size()), size - at);
    std::copy_n(src->begin(), n, out.begin() + at);
  }
  INV_RETURN_IF_ERROR(scan.status());
  return out;
}

// ------------------------------------------------------------------ services

Result<ResultSet> InversionFs::Query(std::string_view text, InvSession* session) {
  ScopedSpan span(spans_, "query");
  if (session != nullptr && session->in_txn()) {
    auto result = executor_->ExecuteQuery(text, session->txn());
    const uint64_t us = span.ElapsedMicros();
    lat_query_->Observe(us);
    if (TenantBinding* t = CurrentTenant()) {
      t->ObserveOp(TenantOp::kQuery, us);
      if (!result.ok()) {
        t->CountError(TenantOp::kQuery);
      }
    }
    return result;
  }
  // Parse first so a pure retrieve's single-statement transaction can be
  // read-only: it then runs against a pinned snapshot, takes no data locks,
  // and writes nothing to the commit log.
  INV_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  const TxnMode mode = stmt.kind == StmtKind::kRetrieve ? TxnMode::kReadOnly
                                                        : TxnMode::kReadWrite;
  INV_ASSIGN_OR_RETURN(TxnId txn, db_->Begin(mode));
  auto result = executor_->Execute(stmt, txn);
  if (result.ok()) {
    INV_RETURN_IF_ERROR(db_->Commit(txn));
  } else {
    (void)db_->Abort(txn);
  }
  const uint64_t us = span.ElapsedMicros();
  lat_query_->Observe(us);
  if (TenantBinding* t = CurrentTenant()) {
    t->ObserveOp(TenantOp::kQuery, us);
    if (!result.ok()) {
      t->CountError(TenantOp::kQuery);
    }
  }
  return result;
}

Result<int> InversionFs::ApplyMigrationRules(TxnId txn) {
  return rules_->ApplyRules(txn);
}

Result<VacuumStats> InversionFs::Vacuum(TxnId txn, bool keep_history) {
  VacuumStats total;
  // Vacuum every file's chunk table, honoring its no-history flag.
  const Snapshot snap = db_->SnapshotFor(txn);
  std::vector<std::pair<Oid, bool>> files;
  {
    auto it = fileatt_->heap->Scan(snap);
    while (it.Next()) {
      const bool no_history =
          (it.row()[kFaFlags].AsInt4() & kInvFlagNoHistory) != 0;
      files.emplace_back(it.row()[kFaFile].AsOid(), !no_history);
    }
    INV_RETURN_IF_ERROR(it.status());
  }
  for (const auto& [oid, keep] : files) {
    auto table = db_->catalog().GetTable(ChunkTableName(oid));
    if (!table.ok()) {
      continue;  // directory
    }
    INV_ASSIGN_OR_RETURN(VacuumStats s,
                         vacuum_->VacuumTable(txn, *table, keep_history && keep));
    total.scanned += s.scanned;
    total.archived += s.archived;
    total.discarded += s.discarded;
    total.live += s.live;
  }
  for (TableInfo* table : {naming_, fileatt_}) {
    INV_ASSIGN_OR_RETURN(VacuumStats s,
                         vacuum_->VacuumTable(txn, table, keep_history));
    total.scanned += s.scanned;
    total.archived += s.archived;
    total.discarded += s.discarded;
    total.live += s.live;
  }
  return total;
}

Status InversionFs::RegisterMigrationAction() {
  rules_->SetMigrateAction([this](TxnId txn, const TableInfo* table, const Row& row,
                                  DeviceId device) -> Result<bool> {
    if (table != fileatt_) {
      return Status::InvalidArgument("migration rules must range over fileatt");
    }
    const Oid file = row[kFaFile].AsOid();
    if (static_cast<DeviceId>(row[kFaDevice].AsInt4()) == device) {
      return false;  // already there
    }
    auto chunk_table = db_->catalog().GetTable(ChunkTableName(file));
    if (chunk_table.ok()) {
      // Exclusive lock before the move: MigrateTable flushes and then copies
      // the relation block by block, and relies on no writer re-dirtying
      // pages in between.
      INV_RETURN_IF_ERROR(
          db_->LockTable(txn, *chunk_table, LockMode::kExclusive));
      INV_RETURN_IF_ERROR(db_->catalog().MigrateTable(txn, *chunk_table, device));
    }
    // Record the new location in fileatt.
    const Snapshot snap = db_->SnapshotFor(txn);
    INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
    if (att.has_value()) {
      Row updated = (*att).second;
      updated[kFaDevice] = Value::Int4(static_cast<int32_t>(device));
      INV_RETURN_IF_ERROR(db_->LockTable(txn, fileatt_, LockMode::kExclusive));
      INV_RETURN_IF_ERROR(
          db_->ReplaceRow(txn, fileatt_, (*att).first, updated).status());
    }
    return true;
  });
  return Status::Ok();
}

}  // namespace invfs
