#include "src/inversion/inv_fs.h"

#include <algorithm>
#include <map>

#include "src/obs/span.h"
#include "src/obs/tenant.h"
#include "src/query/parser.h"

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

// Corruption unless every column in `cols`, a row of `relation` that names
// file `cols[file_column]`, is set.
Status CheckNoNulls(std::span<const ColumnView> cols, const char* relation,
                    Schema (*schema)(), size_t file_column) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].null) {
      const std::string file =
          cols[file_column].null ? "null" : std::to_string(cols[file_column].AsOid());
      return Status::Corruption(std::string(relation) + " row of file oid " + file +
                                " has a null " + schema().column(i).name);
    }
  }
  return Status::Ok();
}

std::string ViewText(const ColumnView& v) {
  return std::string(reinterpret_cast<const char*>(v.bytes.data()), v.bytes.size());
}

// Key tests on a column view that may be null.
bool IsOid(const ColumnView& v, Oid oid) { return !v.null && v.AsOid() == oid; }
bool IsText(const ColumnView& v, std::string_view text) {
  return !v.null && std::ranges::equal(v.bytes, std::as_bytes(std::span(text)));
}

}  // namespace

Result<NamingEntry> NamingEntry::Decode(const Views& cols) {
  INV_RETURN_IF_ERROR(CheckNoNulls(cols, "naming", NamingSchema, kFile));
  return NamingEntry{ViewText(cols[kFilename]), cols[kParent].AsOid(), cols[kFile].AsOid()};
}

Row NamingEntry::ToRow() const {
  return {Value::Text(filename), Value::MakeOid(parent), Value::MakeOid(file)};
}

Result<FileAtt> FileAtt::Decode(const Views& cols) {
  INV_RETURN_IF_ERROR(CheckNoNulls(cols, "fileatt", FileattSchema, kFile));
  return FileAtt{cols[kFile].AsOid(),
                 ViewText(cols[kOwner]),
                 cols[kType].AsOid(),
                 cols[kSize].Int8(),
                 static_cast<Timestamp>(cols[kCtime].Int8()),
                 static_cast<Timestamp>(cols[kMtime].Int8()),
                 static_cast<Timestamp>(cols[kAtime].Int8()),
                 static_cast<DeviceId>(cols[kDevice].Int4()),
                 cols[kFlags].Int4()};
}

Row FileAtt::ToRow() const {
  return {Value::MakeOid(file),        Value::Text(owner),
          Value::MakeOid(type),        Value::Int8(size),
          Value::MakeTimestamp(ctime), Value::MakeTimestamp(mtime),
          Value::MakeTimestamp(atime), Value::Int4(static_cast<int32_t>(device)),
          Value::Int4(flags)};
}

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
  for (size_t i = 0; i < kTenantOpCount; ++i) {
    op_latency_[i] =
        metrics.GetHistogram("op.latency_us", TenantOpLabel(static_cast<TenantOp>(i)));
  }
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
      root_oid_ = root->second.file;
    } else {
      root_oid_ = db_->catalog().AllocateOid();
      INV_RETURN_IF_ERROR(InsertEntry(txn, kInvalidOid, "/", root_oid_, "root",
                                      dir_type_oid_, kDeviceMagneticDisk, 0));
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

Status InversionFs::InsertEntry(TxnId txn, Oid parent, const std::string& name, Oid oid,
                                const std::string& owner, Oid type, DeviceId device,
                                int32_t flags) {
  const Timestamp now = db_->Now();
  INV_RETURN_IF_ERROR(
      db_->InsertRow(txn, naming_, NamingEntry{name, parent, oid}.ToRow()).status());
  return db_
      ->InsertRow(txn, fileatt_,
                  FileAtt{oid, owner, type, 0, now, now, now, device, flags}.ToRow())
      .status();
}

// ------------------------------------------------------------------ lookups

namespace {

// The first version of a `table` row whose column views `wanted` accepts
// among those `snap` sees under `key` on `index`, archive included
// (Database::VisitVersions), decoded as an `Entry` under the page latch.
template <typename Entry, typename Wanted>
Result<std::optional<std::pair<Tid, Entry>>> FirstRow(Database& db, const TableInfo* table,
                                                      const IndexInfo* index,
                                                      const BtreeKey& key,
                                                      const Snapshot& snap, Wanted wanted) {
  std::optional<std::pair<Tid, Entry>> found;
  auto visit = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    typename Entry::Views cols;
    INV_RETURN_IF_ERROR(ViewColumns(table->schema, tuple, cols));
    if (!wanted(cols)) {
      return false;
    }
    INV_ASSIGN_OR_RETURN(Entry entry, Entry::Decode(cols));
    found.emplace(tid, std::move(entry));
    return true;
  };
  INV_RETURN_IF_ERROR(
      db.VisitVersions(table, index, key, Database::KeyMatch::kExact, snap, visit)
          .status());
  return found;
}

}  // namespace

Result<std::optional<std::pair<Tid, NamingEntry>>> InversionFs::NamingLookup(
    Oid parent, const std::string& name, const Snapshot& snap) {
  BtreeKey key = EncodeOidKey(parent);
  INV_RETURN_IF_ERROR(AppendTextKeyPart(name, &key));
  return FirstRow<NamingEntry>(*db_, naming_, naming_by_parent_name_, key, snap,
                               [&](const NamingEntry::Views& cols) {
                                 return IsOid(cols[NamingEntry::kParent], parent) &&
                                        IsText(cols[NamingEntry::kFilename], name);
                               });
}

Result<std::optional<std::pair<Tid, NamingEntry>>> InversionFs::NamingOf(
    Oid file, const Snapshot& snap) {
  return FirstRow<NamingEntry>(
      *db_, naming_, naming_by_file_, EncodeOidKey(file), snap,
      [&](const NamingEntry::Views& cols) { return IsOid(cols[NamingEntry::kFile], file); });
}

Result<std::optional<std::pair<Tid, FileAtt>>> InversionFs::FileattLookup(
    Oid file, const Snapshot& snap) {
  return FirstRow<FileAtt>(
      *db_, fileatt_, fileatt_by_file_, EncodeOidKey(file), snap,
      [&](const FileAtt::Views& cols) { return IsOid(cols[FileAtt::kFile], file); });
}

Result<Oid> InversionFs::ResolvePath(const std::string& path, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto parts, SplitPath(path));
  Oid current = root_oid_;
  for (const std::string& part : parts) {
    INV_ASSIGN_OR_RETURN(auto entry, NamingLookup(current, part, snap));
    if (!entry.has_value()) {
      return Status::NotFound("no such file: " + path);
    }
    current = entry->second.file;
  }
  return current;
}

Result<FileStat> InversionFs::StatOid(Oid file, const Snapshot& snap) {
  INV_ASSIGN_OR_RETURN(auto att, FileattLookup(file, snap));
  if (!att.has_value()) {
    return Status::NotFound("no attributes for file oid " + std::to_string(file));
  }
  const FileAtt& a = att->second;
  FileStat st;
  st.oid = file;
  st.owner = a.owner;
  if (auto type = db_->catalog().GetTypeByOid(a.type); type.ok()) {
    st.type = (*type)->name;
  }
  st.size = a.size;
  st.ctime = a.ctime;
  st.mtime = a.mtime;
  st.atime = a.atime;
  st.device = a.device;
  st.is_directory = a.type == dir_type_oid_;
  st.compressed = (a.flags & kInvFlagCompressed) != 0;
  // Name via the naming table (root keeps its "/").
  INV_ASSIGN_OR_RETURN(auto naming, NamingOf(file, snap));
  if (naming.has_value()) {
    st.name = naming->second.filename;
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
    INV_ASSIGN_OR_RETURN(auto naming, NamingOf(current, snap));
    if (!naming.has_value()) {
      return Status::NotFound("orphaned file oid " + std::to_string(current));
    }
    parts.push_back(naming->second.filename);
    current = naming->second.parent;
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
  // Names first, attributes after the visit: its visitor must not nest a
  // lookup. The map sorts the listing by name.
  std::map<std::string, Oid> names;
  auto collect = [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
    NamingEntry::Views cols;
    INV_RETURN_IF_ERROR(ViewColumns(naming_->schema, tuple, cols));
    if (IsOid(cols[NamingEntry::kParent], dir)) {
      INV_ASSIGN_OR_RETURN(NamingEntry entry, NamingEntry::Decode(cols));
      names.emplace(std::move(entry.filename), entry.file);
    }
    return false;
  };
  INV_RETURN_IF_ERROR(db_->VisitVersions(naming_, naming_by_parent_name_,
                                         EncodeOidKey(dir), Database::KeyMatch::kPrefix,
                                         snap, collect)
                          .status());
  std::vector<DirEntry> out;
  for (const auto& [name, oid] : names) {
    DirEntry entry{name, oid};
    // An entry without attributes lists as a plain file; a corrupt one fails.
    if (auto st = StatOid(oid, snap); st.ok()) {
      entry.is_directory = st->is_directory;
    } else if (!st.status().IsNotFound()) {
      return st.status();
    }
    out.push_back(std::move(entry));
  }
  return out;
}

// ------------------------------------------------------------------ services

Result<ResultSet> InversionFs::Query(std::string_view text, InvSession* session) {
  ScopedSpan span(spans_, "query");
  auto result = [&]() -> Result<ResultSet> {
    if (session != nullptr && session->in_txn()) {
      return executor_->ExecuteQuery(text, session->txn());
    }
    // Parse first so a pure retrieve's single-statement transaction can be
    // read-only: it then runs against a pinned snapshot, takes no data
    // locks, and writes nothing to the commit log.
    INV_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
    const TxnMode mode = stmt.kind == StmtKind::kRetrieve ? TxnMode::kReadOnly
                                                          : TxnMode::kReadWrite;
    INV_ASSIGN_OR_RETURN(TxnId txn, db_->Begin(mode));
    auto executed = executor_->Execute(stmt, txn);
    if (!executed.ok()) {
      (void)db_->Abort(txn);
      return executed;
    }
    INV_RETURN_IF_ERROR(db_->Commit(txn));
    return executed;
  }();
  FinishOp(span, TenantOp::kQuery, result.ok());
  return result;
}

void InversionFs::FinishOp(ScopedSpan& span, TenantOp op, bool ok) {
  const uint64_t us = span.Finish();
  op_latency_[static_cast<size_t>(op)]->Observe(us);
  if (TenantBinding* t = CurrentTenant()) {
    t->ObserveOp(op, us);
    if (!ok) {
      t->CountError(op);
    }
  }
}

Result<int> InversionFs::ApplyMigrationRules(TxnId txn) {
  return rules_->ApplyRules(txn);
}

Result<VacuumStats> InversionFs::Vacuum(TxnId txn, bool keep_history) {
  VacuumStats total;
  // Vacuum every file's chunk table, honoring its no-history flag.
  const Snapshot snap = db_->SnapshotFor(txn);
  std::vector<std::pair<Oid, bool>> files;
  auto collect = [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
    FileAtt::Views cols;
    INV_RETURN_IF_ERROR(ViewColumns(fileatt_->schema, tuple, cols));
    INV_ASSIGN_OR_RETURN(const FileAtt att, FileAtt::Decode(cols));
    files.emplace_back(att.file, (att.flags & kInvFlagNoHistory) == 0);
    return false;
  };
  INV_RETURN_IF_ERROR(fileatt_->heap->VisitEach(snap, collect));
  for (const auto& [oid, keep] : files) {
    auto table = db_->catalog().GetTable(ChunkTableName(oid));
    if (!table.ok()) {
      continue;  // directory
    }
    INV_ASSIGN_OR_RETURN(VacuumStats s,
                         vacuum_->VacuumTable(txn, *table, keep_history && keep));
    total += s;
  }
  for (TableInfo* table : {naming_, fileatt_}) {
    INV_ASSIGN_OR_RETURN(VacuumStats s,
                         vacuum_->VacuumTable(txn, table, keep_history));
    total += s;
  }
  return total;
}

Status InversionFs::RegisterMigrationAction() {
  rules_->SetMigrateAction([this](TxnId txn, const TableInfo* table, const Row& row,
                                  DeviceId device) -> Result<bool> {
    if (table != fileatt_) {
      return Status::InvalidArgument("migration rules must range over fileatt");
    }
    // The rule's row names the file; its attributes are read as every
    // lookup reads them.
    if (row[FileAtt::kFile].is_null()) {
      return Status::Corruption("fileatt row with a null file");
    }
    const Oid file = row[FileAtt::kFile].AsOid();
    INV_ASSIGN_OR_RETURN(auto moving, FileattLookup(file, db_->SnapshotFor(txn)));
    if (moving.has_value() && moving->second.device == device) {
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
      FileAtt updated = att->second;
      updated.device = device;
      INV_RETURN_IF_ERROR(db_->LockTable(txn, fileatt_, LockMode::kExclusive));
      INV_RETURN_IF_ERROR(
          db_->ReplaceRow(txn, fileatt_, att->first, updated.ToRow()).status());
    }
    return true;
  });
  return Status::Ok();
}

}  // namespace invfs
