#include "src/catalog/catalog.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <tuple>

namespace invfs {

Schema PgClassSchema() {
  return Schema{{"relname", TypeId::kText},
                {"relid", TypeId::kOid},
                {"reldevice", TypeId::kInt4},
                {"relkind", TypeId::kInt4}};
}

Schema PgAttributeSchema() {
  return Schema{{"attrelid", TypeId::kOid},
                {"attname", TypeId::kText},
                {"atttypid", TypeId::kInt4},
                {"attnum", TypeId::kInt4}};
}

Schema PgTypeSchema() {
  return Schema{{"typname", TypeId::kText}, {"typid", TypeId::kOid}};
}

Schema PgProcSchema() {
  return Schema{{"proname", TypeId::kText},   {"proid", TypeId::kOid},
                {"prorettype", TypeId::kInt4}, {"pronargs", TypeId::kInt4},
                {"prolang", TypeId::kInt4},    {"prosrc", TypeId::kText}};
}

Schema PgIndexSchema() {
  return Schema{{"indexrelid", TypeId::kOid},
                {"indrelid", TypeId::kOid},
                {"indkeys", TypeId::kText}};
}

std::optional<std::vector<size_t>> DecodeKeyColumns(std::string_view text,
                                                     size_t num_columns) {
  std::vector<size_t> out;
  const char* end = text.data() + text.size();
  for (const char* p = text.data();; ++p) {
    size_t c = 0;
    auto [next, ec] = std::from_chars(p, end, c);
    if (ec != std::errc() || c >= num_columns || (next != end && *next != ',')) {
      return std::nullopt;
    }
    out.push_back(c);
    if (next == end) {
      return out;
    }
    p = next;
  }
}

namespace {

// A row of one of the five catalogs. The engine writes no null into them; a
// row that has one is corruption, not a value to read.
Result<Row> DecodeCatalogRow(const TableInfo& catalog, std::span<const std::byte> tuple) {
  INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(catalog.schema, tuple));
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      return Status::Corruption(catalog.name + " row has a null " +
                                catalog.schema.column(i).name);
    }
  }
  return row;
}

std::string EncodeKeyColumns(const std::vector<size_t>& cols) {
  std::string out;
  for (size_t c : cols) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(c);
  }
  return out;
}

bool Contains(const std::vector<Oid>& oids, Oid oid) {
  return std::find(oids.begin(), oids.end(), oid) != oids.end();
}

// Built-in type names registered in pg_type at bootstrap; user file types are
// appended after these.
constexpr TypeId kBuiltinTypes[] = {TypeId::kBool, TypeId::kInt4,  TypeId::kInt8,
                                    TypeId::kFloat8, TypeId::kText, TypeId::kBytea,
                                    TypeId::kOid,  TypeId::kTimestamp};

}  // namespace

Catalog::Catalog(DeviceSwitch* devices, BufferPool* pool, TxnManager* txns)
    : devices_(devices), pool_(pool), txns_(txns) {}

Status Catalog::PhysicallyCreate(Oid oid, DeviceId device) {
  DeviceManager* mgr = devices_->Get(device);
  if (mgr == nullptr) {
    return Status::InvalidArgument("no device " + std::to_string(device));
  }
  INV_RETURN_IF_ERROR(mgr->CreateRelation(oid));
  devices_->BindRelation(oid, device);
  return Status::Ok();
}

void Catalog::DestroyStorage(Oid oid) {
  pool_->DiscardRelation(oid);
  if (auto mgr = devices_->ManagerFor(oid); mgr.ok()) {
    (void)(*mgr)->DropRelation(oid);
  }
  devices_->UnbindRelation(oid);
}

Result<TableInfo*> Catalog::MakeCachedTable(Oid oid, const std::string& name,
                                            Schema schema, DeviceId device,
                                            RelKind kind) {
  auto info = std::make_unique<TableInfo>();
  info->oid = oid;
  info->name = name;
  info->schema = std::move(schema);
  info->device = device;
  info->kind = kind;
  info->heap = std::make_unique<Heap>(oid, &info->schema, pool_, txns_);
  TableInfo* ptr = info.get();
  tables_[oid] = std::move(info);
  table_names_[name] = oid;
  return ptr;
}

Status Catalog::InsertTableRows(TxnId txn, const TableInfo& info) {
  Row class_row{Value::Text(info.name), Value::MakeOid(info.oid),
                Value::Int4(static_cast<int32_t>(info.device)),
                Value::Int4(static_cast<int32_t>(info.kind))};
  INV_RETURN_IF_ERROR(pg_class_->heap->Insert(txn, class_row, info.oid).status());
  for (size_t i = 0; i < info.schema.num_columns(); ++i) {
    const Column& col = info.schema.column(i);
    Row att_row{Value::MakeOid(info.oid), Value::Text(col.name),
                Value::Int4(static_cast<int32_t>(col.type)),
                Value::Int4(static_cast<int32_t>(i))};
    INV_RETURN_IF_ERROR(pg_attribute_->heap->Insert(txn, att_row).status());
  }
  return Status::Ok();
}

Result<std::array<TableInfo*, 5>> Catalog::CacheCatalogs() {
  const std::tuple<Oid, const char*, Schema, TableInfo**> catalogs[] = {
      {kPgClassOid, "pg_class", PgClassSchema(), &pg_class_},
      {kPgAttributeOid, "pg_attribute", PgAttributeSchema(), &pg_attribute_},
      {kPgTypeOid, "pg_type", PgTypeSchema(), &pg_type_},
      {kPgProcOid, "pg_proc", PgProcSchema(), &pg_proc_},
      {kPgIndexOid, "pg_index", PgIndexSchema(), &pg_index_},
  };
  for (const auto& [oid, name, schema, member] : catalogs) {
    INV_ASSIGN_OR_RETURN(*member, MakeCachedTable(oid, name, schema, kDeviceMagneticDisk,
                                                  RelKind::kHeap));
  }
  return std::array{pg_class_, pg_attribute_, pg_type_, pg_proc_, pg_index_};
}

Status Catalog::Bootstrap() {
  MutexLock lock(mu_);
  // 1. Physically create the five catalog relations on the default device.
  INV_ASSIGN_OR_RETURN(const auto catalogs, CacheCatalogs());
  for (const TableInfo* c : catalogs) {
    INV_RETURN_IF_ERROR(PhysicallyCreate(c->oid, kDeviceMagneticDisk));
  }

  // 2. Describe the catalogs in themselves, stamped by the always-committed
  //    bootstrap transaction.
  for (const TableInfo* c : catalogs) {
    INV_RETURN_IF_ERROR(InsertTableRows(kBootstrapTxn, *c));
  }

  // 3. Seed built-in types.
  for (TypeId t : kBuiltinTypes) {
    const std::string name(TypeName(t));
    Row row{Value::Text(name), Value::MakeOid(static_cast<Oid>(t))};
    INV_RETURN_IF_ERROR(pg_type_->heap->Insert(kBootstrapTxn, row).status());
    types_[name] = TypeInfo{static_cast<Oid>(t), name};
  }

  INV_RETURN_IF_ERROR(pool_->FlushAll());
  return Status::Ok();
}

Status Catalog::Load() {
  MutexLock lock(mu_);
  // Catalog relations have fixed oids and schemas: construct them directly,
  // then read everything else out of them.
  INV_ASSIGN_OR_RETURN(const auto catalogs, CacheCatalogs());
  for (const TableInfo* c : catalogs) {
    devices_->BindRelation(c->oid, kDeviceMagneticDisk);
  }
  const Snapshot snap{kTimestampNow, kInvalidTxn, &txns_->log(), nullptr};

  // Collect attribute rows grouped by relation.
  std::map<Oid, std::vector<std::pair<int32_t, Column>>> atts;
  INV_RETURN_IF_ERROR(pg_attribute_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row r, DecodeCatalogRow(*pg_attribute_, tuple));
    atts[r[0].AsOid()].push_back(
        {r[3].AsInt4(), Column{r[1].AsText(), static_cast<TypeId>(r[2].AsInt4())}});
    return false;
  }));

  Oid max_oid = kFirstUserOid - 1;
  std::vector<Row> class_rows;
  INV_RETURN_IF_ERROR(pg_class_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(class_rows.emplace_back(), DecodeCatalogRow(*pg_class_, tuple));
    return false;
  }));
  for (const Row& row : class_rows) {
    const std::string name = row[0].AsText();
    const Oid oid = row[1].AsOid();
    const DeviceId device = static_cast<DeviceId>(row[2].AsInt4());
    const RelKind kind = static_cast<RelKind>(row[3].AsInt4());
    max_oid = std::max(max_oid, oid);
    devices_->BindRelation(oid, device);
    if (tables_.contains(oid)) {
      continue;  // catalogs, already cached
    }
    if (kind == RelKind::kIndex) {
      continue;  // handled via pg_index below
    }
    auto& att_list = atts[oid];
    std::sort(att_list.begin(), att_list.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Column> cols;
    cols.reserve(att_list.size());
    for (auto& [num, col] : att_list) {
      cols.push_back(col);
    }
    INV_RETURN_IF_ERROR(
        MakeCachedTable(oid, name, Schema(std::move(cols)), device, kind).status());
  }

  // Indexes. BTree::Open pins the meta page: open each after the visit.
  std::vector<Row> index_rows;
  INV_RETURN_IF_ERROR(pg_index_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(index_rows.emplace_back(), DecodeCatalogRow(*pg_index_, tuple));
    return false;
  }));
  for (const Row& r : index_rows) {
    const Oid index_oid = r[0].AsOid();
    const Oid table_oid = r[1].AsOid();
    auto tit = tables_.find(table_oid);
    if (tit == tables_.end()) {
      continue;
    }
    auto info = std::make_unique<IndexInfo>();
    info->oid = index_oid;
    info->table = table_oid;
    auto key_columns = DecodeKeyColumns(r[2].AsText(), tit->second->schema.num_columns());
    if (!key_columns) {
      return Status::Corruption("pg_index row of index " + std::to_string(index_oid) +
                                " lists no valid key columns");
    }
    info->key_columns = std::move(*key_columns);
    INV_ASSIGN_OR_RETURN(info->btree,
                         BTree::Open(index_oid, pool_,
                                     FixedKeyWidth(tit->second->schema, info->key_columns)));
    tit->second->indexes.push_back(info.get());
    max_oid = std::max(max_oid, index_oid);
    indexes_[index_oid] = std::move(info);
  }

  // Archive links: archives are named "a,<base name>".
  for (auto& [oid, info] : tables_) {
    if (info->kind == RelKind::kArchive && info->name.rfind("a,", 0) == 0) {
      auto nit = table_names_.find(info->name.substr(2));
      if (nit != table_names_.end()) {
        tables_[nit->second]->archive_oid = oid;
      }
    }
  }

  // Types and procs.
  INV_RETURN_IF_ERROR(pg_type_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row r, DecodeCatalogRow(*pg_type_, tuple));
    types_[r[0].AsText()] = TypeInfo{r[1].AsOid(), r[0].AsText()};
    max_oid = std::max(max_oid, r[1].AsOid());
    return false;
  }));
  INV_RETURN_IF_ERROR(pg_proc_->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row r, DecodeCatalogRow(*pg_proc_, tuple));
    ProcInfo p;
    p.name = r[0].AsText();
    p.oid = r[1].AsOid();
    p.rettype = static_cast<TypeId>(r[2].AsInt4());
    p.nargs = r[3].AsInt4();
    p.lang = static_cast<ProcLang>(r[4].AsInt4());
    p.src = r[5].AsText();
    max_oid = std::max(max_oid, p.oid);
    procs_[p.name] = std::move(p);
    return false;
  }));

  next_oid_ = max_oid + 1;
  return Status::Ok();
}

Oid Catalog::AllocateOid() {
  MutexLock lock(mu_);
  return next_oid_++;
}

void Catalog::NoteCreated(TxnId txn, Oid oid) {
  if (txns_->IsActive(txn)) {
    created_by_txn_[txn].push_back(oid);
  }
}

Result<TableInfo*> Catalog::CreateTable(TxnId txn, const std::string& name,
                                        const Schema& schema, DeviceId device) {
  MutexLock lock(mu_);
  if (table_names_.contains(name)) {
    return Status::AlreadyExists("table " + name);
  }
  const Oid oid = next_oid_++;
  INV_RETURN_IF_ERROR(PhysicallyCreate(oid, device));
  INV_ASSIGN_OR_RETURN(TableInfo * info,
                       MakeCachedTable(oid, name, schema, device, RelKind::kHeap));
  INV_RETURN_IF_ERROR(InsertTableRows(txn, *info));
  // Force policy: the new relation's pages (none yet, but any the txn dirties
  // before its first row insert) must be flushed before this txn's commit
  // record — its catalog rows commit in the same record, so a catalogued
  // relation whose storage never reached the device would otherwise be
  // reachable after recovery.
  txns_->NoteTouched(txn, oid);
  NoteCreated(txn, oid);
  return info;
}

Result<IndexInfo*> Catalog::CreateIndex(TxnId txn, TableInfo* table,
                                        std::vector<size_t> key_columns) {
  MutexLock lock(mu_);
  const Oid oid = next_oid_++;
  INV_RETURN_IF_ERROR(PhysicallyCreate(oid, table->device));
  auto info = std::make_unique<IndexInfo>();
  info->oid = oid;
  info->table = table->oid;
  info->key_columns = key_columns;
  INV_ASSIGN_OR_RETURN(info->btree,
                       BTree::Create(oid, pool_, FixedKeyWidth(table->schema, key_columns)));
  // BTree::Create just dirtied the meta and root pages through the buffer
  // pool. If this txn commits without a single index insert (an empty file's
  // chunk index, say), nothing else puts the relation in the commit's flush
  // set — and the commit record would then catalogue an index whose block 0
  // never reached the device, which BTree::Open rejects at recovery.
  txns_->NoteTouched(txn, oid);

  // pg_class row (so the relation is discoverable) + pg_index row.
  Row class_row{Value::Text(table->name + "_idx" + std::to_string(oid)),
                Value::MakeOid(oid), Value::Int4(static_cast<int32_t>(table->device)),
                Value::Int4(static_cast<int32_t>(RelKind::kIndex))};
  INV_RETURN_IF_ERROR(pg_class_->heap->Insert(txn, class_row, oid).status());
  Row index_row{Value::MakeOid(oid), Value::MakeOid(table->oid),
                Value::Text(EncodeKeyColumns(key_columns))};
  INV_RETURN_IF_ERROR(pg_index_->heap->Insert(txn, index_row).status());

  // Populate from every stored version, as writes keep it: the index serves
  // as-of reads too, and vacuum drops the entries of versions it reclaims.
  std::vector<std::pair<BtreeKey, Tid>> entries;
  INV_RETURN_IF_ERROR(table->heap->VisitEachStored([&](Tid tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row row, DecodeTuple(table->schema, tuple));
    INV_ASSIGN_OR_RETURN(entries.emplace_back().first, EncodeKey(row, key_columns));
    entries.back().second = tid;
    return false;
  }));
  for (const auto& [key, tid] : entries) {
    INV_RETURN_IF_ERROR(info->btree->Insert(key, tid));
  }

  IndexInfo* ptr = info.get();
  table->indexes.push_back(ptr);
  indexes_[oid] = std::move(info);
  NoteCreated(txn, oid);
  return ptr;
}

Status Catalog::DropTable(TxnId txn, const std::string& name) {
  MutexLock lock(mu_);
  auto nit = table_names_.find(name);
  if (nit == table_names_.end()) {
    return Status::NotFound("table " + name);
  }
  TableInfo* info = tables_[nit->second].get();
  const Snapshot snap = txns_->SnapshotFor(txn);

  // Delete catalog rows for the table, its attributes, and its indexes.
  std::vector<Oid> doomed{info->oid};
  for (IndexInfo* idx : info->indexes) {
    doomed.push_back(idx->oid);
  }
  if (info->archive_oid != kInvalidOid) {
    doomed.push_back(info->archive_oid);
  }
  // Each catalog with the column that names a relation.
  for (const auto& [catalog, column] :
       {std::pair(pg_class_, 1), std::pair(pg_attribute_, 0), std::pair(pg_index_, 0)}) {
    std::vector<Tid> rows;
    INV_RETURN_IF_ERROR(catalog->heap->VisitEach(snap, [&](Tid tid, auto tuple) -> Result<bool> {
      INV_ASSIGN_OR_RETURN(const Row row, DecodeCatalogRow(*catalog, tuple));
      if (Contains(doomed, row[column].AsOid())) {
        rows.push_back(tid);
      }
      return false;
    }));
    for (Tid tid : rows) {
      INV_RETURN_IF_ERROR(catalog->heap->Delete(txn, tid));
    }
  }

  // Physical destruction happens when the txn commits (OnCommit); until then
  // only the name mapping disappears. Historical snapshots lose access to the
  // file's data after the drop commits — the paper's vacuum/archive design
  // has the same property for dropped relations.
  table_names_.erase(nit);
  dropped_by_txn_[txn].push_back(info->oid);
  return Status::Ok();
}

namespace {

// Expunges `dead` from `table`'s heap, then walks each index once and keeps
// an entry only if its TID names a surviving version whose key equals the
// entry's and it does not repeat the entry before it. That drops the
// expunged versions' entries, and the ones a crash stranded past the heap's
// persisted end or on a slot a later insert took. Compact keeps slot numbers
// and a dead slot keeps its line pointer, so no kept entry changes meaning.
Status ReclaimVersions(const TableInfo& table, std::vector<Tid> dead) {
  if (dead.empty()) {
    return Status::Ok();
  }
  INV_RETURN_IF_ERROR(table.heap->Expunge(std::move(dead)));
  if (table.indexes.empty()) {
    return Status::Ok();
  }
  // Every surviving version's TID, in scan (TID) order, and its key in each
  // index.
  std::vector<Tid> tids;
  std::vector<std::vector<BtreeKey>> keys(table.indexes.size());
  INV_RETURN_IF_ERROR(table.heap->VisitEachStored([&](Tid tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row row, DecodeTuple(table.schema, tuple));
    tids.push_back(tid);
    for (size_t i = 0; i < table.indexes.size(); ++i) {
      INV_ASSIGN_OR_RETURN(keys[i].emplace_back(),
                           EncodeKey(row, table.indexes[i]->key_columns));
    }
    return false;
  }));
  for (size_t i = 0; i < table.indexes.size(); ++i) {
    BTree& tree = *table.indexes[i]->btree;
    std::optional<std::pair<BtreeKey, Tid>> prev;
    // The iterator walks a copy of each leaf, so removing as it goes is safe.
    INV_ASSIGN_OR_RETURN(BTree::Iterator e, tree.Seek(BtreeKey{}));
    while (e.Valid()) {
      std::pair<BtreeKey, Tid> entry(BtreeKey(e.key()), e.tid());
      const auto& [key, tid] = entry;
      const auto at = std::lower_bound(tids.begin(), tids.end(), tid);
      if (at == tids.end() || *at != tid || keys[i][at - tids.begin()] != key ||
          entry == prev) {
        INV_RETURN_IF_ERROR(tree.Remove(key, tid));
      }
      prev = std::move(entry);
      INV_RETURN_IF_ERROR(e.Advance());
    }
  }
  return Status::Ok();
}

}  // namespace

void Catalog::ReclaimAtEnd(TxnId txn, Reclaim reclaim) {
  MutexLock lock(mu_);
  vacuumed_by_txn_[txn].push_back(std::move(reclaim));
}

Status Catalog::OnCommit(TxnId txn) {
  std::vector<Reclaim> vacuumed;
  {
    MutexLock lock(mu_);
    created_by_txn_.erase(txn);
    if (auto vit = vacuumed_by_txn_.find(txn); vit != vacuumed_by_txn_.end()) {
      vacuumed = std::move(vit->second);
      vacuumed_by_txn_.erase(vit);
    }
    auto dit = dropped_by_txn_.find(txn);
    if (dit != dropped_by_txn_.end()) {
      // A table dropped whole has nothing left to reclaim, and is freed below.
      std::erase_if(vacuumed, [&](const Reclaim& r) {
        return Contains(dit->second, r.table->oid);
      });
      for (Oid oid : dit->second) {
        auto tit = tables_.find(oid);
        if (tit == tables_.end()) {
          continue;
        }
        TableInfo* info = tit->second.get();
        std::vector<Oid> victims{oid};
        for (IndexInfo* idx : info->indexes) {
          victims.push_back(idx->oid);
        }
        if (info->archive_oid != kInvalidOid) {
          victims.push_back(info->archive_oid);
        }
        for (Oid v : victims) {
          DestroyStorage(v);
          indexes_.erase(v);
          auto vt = tables_.find(v);
          if (vt != tables_.end()) {
            table_names_.erase(vt->second->name);
            tables_.erase(vt);
          }
        }
      }
      dropped_by_txn_.erase(dit);
    }
  }
  // Page I/O outside mu_. The tables stay put: `txn` still holds their
  // exclusive locks.
  for (Reclaim& r : vacuumed) {
    INV_RETURN_IF_ERROR(ReclaimVersions(*r.table, std::move(r.dead)));
  }
  return Status::Ok();
}

Status Catalog::OnAbort(TxnId txn) {
  std::vector<Reclaim> vacuumed;
  {
    MutexLock lock(mu_);
    if (auto vit = vacuumed_by_txn_.find(txn); vit != vacuumed_by_txn_.end()) {
      vacuumed = std::move(vit->second);
      vacuumed_by_txn_.erase(vit);
    }
    // Undo drops: restore the name mappings.
    auto dit = dropped_by_txn_.find(txn);
    if (dit != dropped_by_txn_.end()) {
      for (Oid oid : dit->second) {
        auto tit = tables_.find(oid);
        if (tit != tables_.end()) {
          table_names_[tit->second->name] = oid;
        }
      }
      dropped_by_txn_.erase(dit);
    }
    // Undo creates: physically remove; the catalog rows die with the txn.
    auto cit = created_by_txn_.find(txn);
    if (cit != created_by_txn_.end()) {
      // Copies in an archive `txn` created go with the archive.
      std::erase_if(vacuumed, [&](const Reclaim& r) {
        return r.archive != nullptr && Contains(cit->second, r.archive->oid);
      });
      for (Oid oid : cit->second) {
        DestroyStorage(oid);
        auto iit = indexes_.find(oid);
        if (iit != indexes_.end()) {
          auto tit = tables_.find(iit->second->table);
          if (tit != tables_.end()) {
            auto& vec = tit->second->indexes;
            vec.erase(std::remove(vec.begin(), vec.end(), iit->second.get()), vec.end());
          }
          indexes_.erase(iit);
          continue;
        }
        auto tit = tables_.find(oid);
        if (tit != tables_.end()) {
          const TableInfo& info = *tit->second;
          if (info.kind == RelKind::kArchive) {
            // An aborted vacuum's archive "a,<name>": its base table has
            // none again.
            auto base = table_names_.find(info.name.substr(2));
            if (base != table_names_.end()) {
              tables_.at(base->second)->archive_oid = kInvalidOid;
            }
          }
          table_names_.erase(info.name);
          tables_.erase(tit);
        }
      }
      created_by_txn_.erase(cit);
    }
  }
  // Versions with their original xmin/xmax stay visible in an archive;
  // these copies' versions are still in their heaps.
  for (Reclaim& r : vacuumed) {
    if (!r.archived.empty()) {
      INV_RETURN_IF_ERROR(r.archive->heap->Expunge(std::move(r.archived)));
    }
  }
  return Status::Ok();
}

Result<Oid> Catalog::DefineType(TxnId txn, const std::string& name) {
  MutexLock lock(mu_);
  if (types_.contains(name)) {
    return Status::AlreadyExists("type " + name);
  }
  const Oid oid = next_oid_++;
  Row row{Value::Text(name), Value::MakeOid(oid)};
  INV_RETURN_IF_ERROR(pg_type_->heap->Insert(txn, row, oid).status());
  types_[name] = TypeInfo{oid, name};
  return oid;
}

Result<Oid> Catalog::DefineFunction(TxnId txn, const std::string& name, TypeId rettype,
                                    int32_t nargs, ProcLang lang,
                                    const std::string& src) {
  MutexLock lock(mu_);
  if (procs_.contains(name)) {
    return Status::AlreadyExists("function " + name);
  }
  const Oid oid = next_oid_++;
  Row row{Value::Text(name),
          Value::MakeOid(oid),
          Value::Int4(static_cast<int32_t>(rettype)),
          Value::Int4(nargs),
          Value::Int4(static_cast<int32_t>(lang)),
          Value::Text(src)};
  INV_RETURN_IF_ERROR(pg_proc_->heap->Insert(txn, row, oid).status());
  procs_[name] = ProcInfo{oid, name, rettype, nargs, lang, src};
  return oid;
}

Result<TableInfo*> Catalog::CreateArchive(TxnId txn, TableInfo* table) {
  MutexLock lock(mu_);
  if (table->archive_oid != kInvalidOid) {
    return tables_[table->archive_oid].get();
  }
  const Oid oid = next_oid_++;
  const std::string name = "a," + table->name;
  // Archives default to the same device; sites with a jukebox would place
  // them there (see vacuum tests for that configuration).
  INV_RETURN_IF_ERROR(PhysicallyCreate(oid, table->device));
  INV_ASSIGN_OR_RETURN(TableInfo * info, MakeCachedTable(oid, name, table->schema,
                                                         table->device,
                                                         RelKind::kArchive));
  INV_RETURN_IF_ERROR(InsertTableRows(txn, *info));
  table->archive_oid = oid;
  NoteCreated(txn, oid);
  return info;
}

Status Catalog::MigrateTable(TxnId txn, TableInfo* table, DeviceId new_device) {
  MutexLock lock(mu_);
  if (table->device == new_device) {
    return Status::Ok();
  }
  DeviceManager* dst = devices_->Get(new_device);
  if (dst == nullptr) {
    return Status::InvalidArgument("no device " + std::to_string(new_device));
  }
  // Move the heap and every index, block by block, through the buffer pool's
  // backing stores (flush first so the stores are current).
  std::vector<Oid> victims{table->oid};
  for (IndexInfo* idx : table->indexes) {
    victims.push_back(idx->oid);
  }
  for (Oid oid : victims) {
    INV_RETURN_IF_ERROR(pool_->FlushRelation(oid));
    INV_ASSIGN_OR_RETURN(DeviceManager * src, devices_->ManagerFor(oid));
    INV_ASSIGN_OR_RETURN(uint32_t nblocks, src->NumBlocks(oid));
    INV_RETURN_IF_ERROR(dst->CreateRelation(oid));
    std::vector<std::byte> buf(kPageSize);
    for (uint32_t b = 0; b < nblocks; ++b) {
      INV_RETURN_IF_ERROR(src->ReadBlock(oid, b, buf));
      INV_RETURN_IF_ERROR(dst->WriteBlock(oid, b, buf));
    }
    // Cached frames are deliberately kept: after the flush above they are
    // clean and byte-identical to the copy just written, so they remain a
    // valid cache for the destination device. Dropping them instead would
    // require pins == 0, which lock-free snapshot readers cannot guarantee:
    // no reader parks a pin between calls any more, but a Visit or VisitEach
    // under way holds one and takes no table lock.
    // The caller's exclusive table lock keeps writers from re-dirtying
    // frames between the flush and the rebind.
    INV_RETURN_IF_ERROR(src->DropRelation(oid));
    devices_->BindRelation(oid, new_device);
  }
  table->device = new_device;

  // Update the pg_class rows' reldevice.
  std::vector<std::pair<Tid, Row>> updates;
  INV_RETURN_IF_ERROR(pg_class_->heap->VisitEach(
      txns_->SnapshotFor(txn), [&](Tid tid, auto tuple) -> Result<bool> {
        INV_ASSIGN_OR_RETURN(Row row, DecodeCatalogRow(*pg_class_, tuple));
        if (Contains(victims, row[1].AsOid())) {
          row[2] = Value::Int4(static_cast<int32_t>(new_device));
          updates.emplace_back(tid, std::move(row));
        }
        return false;
      }));
  for (auto& [tid, row] : updates) {
    INV_RETURN_IF_ERROR(pg_class_->heap->Replace(txn, tid, row, row[1].AsOid()).status());
  }
  return Status::Ok();
}

Result<TableInfo*> Catalog::GetTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = table_names_.find(name);
  if (it == table_names_.end()) {
    return Status::NotFound("table " + name);
  }
  return tables_[it->second].get();
}

Result<TableInfo*> Catalog::GetTableByOid(Oid oid) {
  MutexLock lock(mu_);
  auto it = tables_.find(oid);
  if (it == tables_.end()) {
    return Status::NotFound("table oid " + std::to_string(oid));
  }
  return it->second.get();
}

Result<TableInfo*> Catalog::GetTableAt(const std::string& name, const Snapshot& snap) {
  if (!snap.is_historical()) {
    return GetTable(name);
  }
  // Resolve through pg_class as of the snapshot: renamed/dropped/recreated
  // tables resolve to whatever oid held the name then.
  TableInfo* pg_class;
  {
    MutexLock lock(mu_);
    pg_class = pg_class_;
  }
  // The first row naming the table; GetTableByOid takes mu_, so after the
  // visit.
  Oid oid = kInvalidOid;
  INV_RETURN_IF_ERROR(pg_class->heap->VisitEach(snap, [&](Tid, auto tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(const Row row, DecodeCatalogRow(*pg_class, tuple));
    if (row[0].AsText() != name) {
      return false;
    }
    oid = row[1].AsOid();
    return true;
  }));
  if (oid == kInvalidOid) {
    return Status::NotFound("table " + name + " did not exist at that time");
  }
  return GetTableByOid(oid);
}

Result<ProcInfo*> Catalog::GetFunction(const std::string& name) {
  MutexLock lock(mu_);
  auto it = procs_.find(name);
  if (it == procs_.end()) {
    return Status::NotFound("function " + name);
  }
  return &it->second;
}

Result<TypeInfo*> Catalog::GetType(const std::string& name) {
  MutexLock lock(mu_);
  auto it = types_.find(name);
  if (it == types_.end()) {
    return Status::NotFound("type " + name);
  }
  return &it->second;
}

Result<TypeInfo*> Catalog::GetTypeByOid(Oid oid) {
  MutexLock lock(mu_);
  for (auto& [name, info] : types_) {
    if (info.oid == oid) {
      return &info;
    }
  }
  return Status::NotFound("type oid " + std::to_string(oid));
}

std::vector<TableInfo*> Catalog::AllTables() {
  MutexLock lock(mu_);
  std::vector<TableInfo*> out;
  out.reserve(tables_.size());
  for (auto& [oid, info] : tables_) {
    out.push_back(info.get());
  }
  return out;
}

}  // namespace invfs
