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
      root_oid_ = (*root).second[2].AsOid();
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
      db_->InsertRow(txn, naming_,
                     {Value::Text(name), Value::MakeOid(parent), Value::MakeOid(oid)})
          .status());
  return db_
      ->InsertRow(txn, fileatt_,
                  {Value::MakeOid(oid), Value::Text(owner), Value::MakeOid(type),
                   Value::Int8(0), Value::MakeTimestamp(now), Value::MakeTimestamp(now),
                   Value::MakeTimestamp(now), Value::Int4(static_cast<int32_t>(device)),
                   Value::Int4(flags)})
      .status();
}

// ------------------------------------------------------------------ lookups

namespace {

// The first version of a `table` row that `wanted` accepts among those `snap`
// sees under `key` on `index`, archive included (Database::VisitVersions).
// The row is decoded under the page latch; callers look further only after.
template <typename Wanted>
Result<std::optional<std::pair<Tid, Row>>> FirstRow(Database& db, const TableInfo* table,
                                                    const IndexInfo* index,
                                                    const BtreeKey& key,
                                                    const Snapshot& snap, Wanted wanted) {
  std::optional<std::pair<Tid, Row>> found;
  auto visit = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(table->schema, tuple));
    if (!wanted(row)) {
      return false;
    }
    found.emplace(tid, std::move(row));
    return true;
  };
  INV_RETURN_IF_ERROR(
      db.VisitVersions(table, index, key, Database::KeyMatch::kExact, snap, visit)
          .status());
  return found;
}

}  // namespace

Result<std::optional<std::pair<Tid, Row>>> InversionFs::NamingLookup(
    Oid parent, const std::string& name, const Snapshot& snap) {
  BtreeKey key = EncodeOidKey(parent);
  INV_RETURN_IF_ERROR(AppendTextKeyPart(name, &key));
  return FirstRow(*db_, naming_, naming_by_parent_name_, key, snap, [&](const Row& row) {
    return row[1].AsOid() == parent && row[0].AsText() == name;
  });
}

Result<std::optional<std::pair<Tid, Row>>> InversionFs::NamingOf(Oid file,
                                                                  const Snapshot& snap) {
  return FirstRow(*db_, naming_, naming_by_file_, EncodeOidKey(file), snap,
                  [&](const Row& row) { return row[2].AsOid() == file; });
}

Result<std::optional<std::pair<Tid, Row>>> InversionFs::FileattLookup(
    Oid file, const Snapshot& snap) {
  return FirstRow(*db_, fileatt_, fileatt_by_file_, EncodeOidKey(file), snap,
                  [&](const Row& row) { return row[kFaFile].AsOid() == file; });
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
  INV_ASSIGN_OR_RETURN(auto naming, NamingOf(file, snap));
  if (naming.has_value()) {
    st.name = (*naming).second[0].AsText();
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
    parts.push_back((*naming).second[0].AsText());
    current = (*naming).second[1].AsOid();
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
  // lookup. Keyed by name, which sorts the listing and keeps one entry for a
  // version met twice, in the heap and in the archive, while vacuum moves it.
  std::map<std::string, Oid> names;
  auto collect = [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(naming_->schema, tuple));
    if (row[1].AsOid() == dir) {
      names.emplace(row[0].AsText(), row[2].AsOid());
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
    if (auto st = StatOid(oid, snap); st.ok()) {
      entry.is_directory = st->is_directory;
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
  INV_RETURN_IF_ERROR(fileatt_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row row, DecodeTuple(fileatt_->schema, tuple));
    const bool no_history = (row[kFaFlags].AsInt4() & kInvFlagNoHistory) != 0;
    files.emplace_back(row[kFaFile].AsOid(), !no_history);
    return false;
  }));
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
