#include "src/catalog/catalog.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <set>

namespace invfs {

const std::array<CatalogSpec, 5>& CatalogSpecs() {
  static const std::array<CatalogSpec, 5> specs = {{
      {kPgClassOid, "pg_class",
       Schema{{"relname", TypeId::kText}, {"relid", TypeId::kOid},
              {"reldevice", TypeId::kInt4}, {"relkind", TypeId::kInt4}}},
      {kPgAttributeOid, "pg_attribute",
       Schema{{"attrelid", TypeId::kOid}, {"attname", TypeId::kText},
              {"atttypid", TypeId::kInt4}, {"attnum", TypeId::kInt4}}},
      {kPgTypeOid, "pg_type", Schema{{"typname", TypeId::kText}, {"typid", TypeId::kOid}}},
      {kPgProcOid, "pg_proc",
       Schema{{"proname", TypeId::kText}, {"proid", TypeId::kOid},
              {"prorettype", TypeId::kInt4}, {"pronargs", TypeId::kInt4},
              {"prolang", TypeId::kInt4}, {"prosrc", TypeId::kText}}},
      {kPgIndexOid, "pg_index",
       Schema{{"indexrelid", TypeId::kOid}, {"indrelid", TypeId::kOid},
              {"indkeys", TypeId::kText}}},
  }};
  return specs;
}

namespace {

// The key columns a pg_index row's `indkeys` text lists ("0,2"), or nullopt
// unless it is a non-empty comma-separated list of column numbers below
// `num_columns`.
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

bool ValidTypeId(int32_t v) {
  return v >= static_cast<int32_t>(TypeId::kBool) &&
         v <= static_cast<int32_t>(TypeId::kTimestamp);
}

// A row of one of the five catalogs. The engine writes no null into them; a
// row that has one is corruption, not a value to read.
Result<Row> DecodeCatalogRow(const TableInfo& catalog, std::span<const std::byte> tuple) {
  INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(catalog.schema, tuple));
  INV_RETURN_IF_ERROR(RefuseNullColumns(catalog.name, catalog.schema, row));
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

std::string ArchiveName(std::string_view base) { return "a," + std::string(base); }

std::string ArchiveBase(std::string_view name) {
  return name.starts_with("a,") ? std::string(name.substr(2)) : std::string();
}

Status RefuseNullColumns(std::string_view catalog, const Schema& schema, const Row& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      return Status::Corruption("catalog-null: " + std::string(catalog) + " row has a null " +
                                schema.column(i).name);
    }
  }
  return Status::Ok();
}

CatalogDefs DecodeCatalogDefs(std::span<const CatalogRow> pg_class,
                              std::span<const CatalogRow> pg_attribute,
                              std::span<const CatalogRow> pg_index) {
  CatalogDefs defs;
  std::vector<CatalogDefs::Problem>& problems = defs.problems;
  std::set<Oid> refused;  // cataloged, but defining nothing
  for (const auto& [tid, r] : pg_class) {
    const Oid oid = r[1].AsOid();
    const int32_t device = r[2].AsInt4();
    const int32_t kind = r[3].AsInt4();
    if (defs.relations.contains(oid) || refused.contains(oid)) {
      problems.push_back({"duplicate-current-version", kPgClassOid, tid.block,
                          "pg_class row at " + tid.ToString() + " is a second current row of " +
                              std::to_string(oid)});
      continue;
    }
    if (device < kDeviceMagneticDisk || device > kDeviceJukebox) {
      problems.push_back({"relation-bad-device", oid, ~0u,
                          r[0].AsText() + " bound to unknown device " + std::to_string(device)});
    } else if (kind < 0 || kind > static_cast<int32_t>(RelKind::kArchive)) {
      problems.push_back({"relation-bad-kind", oid, ~0u,
                          r[0].AsText() + " has unknown relkind " + std::to_string(kind)});
    } else {
      defs.relations.emplace(oid, CatalogDefs::Relation{oid, r[0].AsText(),
                                                        static_cast<DeviceId>(device),
                                                        static_cast<RelKind>(kind), {}});
      continue;
    }
    refused.insert(oid);
  }

  // A heap's or an archive's attribute rows define its schema.
  std::map<Oid, std::vector<const CatalogRow*>> attrs;
  for (const CatalogRow& a : pg_attribute) {
    const Oid relid = a.row[0].AsOid();
    if (defs.relations.contains(relid) || refused.contains(relid)) {
      attrs[relid].push_back(&a);
    } else {
      problems.push_back({"attribute-orphan", kPgAttributeOid, a.tid.block,
                          "pg_attribute row at " + a.tid.ToString() +
                              " references missing relation " + std::to_string(relid)});
    }
  }
  for (auto& [oid, rel] : defs.relations) {
    if (rel.kind == RelKind::kIndex) {
      continue;
    }
    const std::vector<const CatalogRow*>& rows = attrs[oid];
    std::vector<Column> cols(rows.size());
    std::vector<bool> seen(rows.size());
    if (rows.empty()) {
      problems.push_back({"attribute-gap", oid, ~0u, rel.name + " has no pg_attribute rows"});
      refused.insert(oid);
    }
    for (const CatalogRow* a : rows) {
      const int32_t typid = a->row[2].AsInt4();
      const int32_t attnum = a->row[3].AsInt4();
      if (attnum < 0 || attnum >= std::ssize(cols) || seen[attnum] || !ValidTypeId(typid)) {
        problems.push_back({"attribute-gap", oid, a->tid.block,
                            rel.name + " attribute row at " + a->tid.ToString() +
                                " has attnum " + std::to_string(attnum) + " / type " +
                                std::to_string(typid)});
        refused.insert(oid);
        break;
      }
      seen[attnum] = true;
      cols[attnum] = Column{a->row[1].AsText(), static_cast<TypeId>(typid)};
    }
    rel.schema = Schema(std::move(cols));
  }
  std::erase_if(defs.relations, [&](const auto& entry) { return refused.contains(entry.first); });

  std::set<Oid> named;    // the index oids some pg_index row names
  std::set<Oid> indexed;  // the index oids defined
  for (const auto& [tid, r] : pg_index) {
    const Oid index = r[0].AsOid();
    const Oid heap = r[1].AsOid();
    named.insert(index);
    if (refused.contains(index) || refused.contains(heap)) {
      continue;
    }
    const auto iit = defs.relations.find(index);
    const auto hit = defs.relations.find(heap);
    const bool paired = iit != defs.relations.end() && iit->second.kind == RelKind::kIndex &&
                        hit != defs.relations.end() && hit->second.kind != RelKind::kIndex;
    auto keys = paired ? DecodeKeyColumns(r[2].AsText(), hit->second.schema.num_columns())
                       : std::nullopt;
    if (!keys) {
      problems.push_back({"index-ref", kPgIndexOid, tid.block,
                          "pg_index row at " + tid.ToString() + " (index " +
                              std::to_string(index) + " over " + std::to_string(heap) +
                              ", keys '" + r[2].AsText() +
                              "') does not pair a cataloged index with a cataloged heap's "
                              "columns"});
      continue;
    }
    if (!indexed.insert(index).second) {
      problems.push_back({"duplicate-current-version", kPgIndexOid, tid.block,
                          "pg_index row at " + tid.ToString() + " is a second current row of " +
                              std::to_string(index)});
      continue;
    }
    const size_t key_width = FixedKeyWidth(hit->second.schema, *keys);
    defs.indexes.push_back({index, heap, std::move(*keys), key_width});
  }
  for (const auto& [oid, rel] : defs.relations) {
    if (rel.kind == RelKind::kIndex && !named.contains(oid)) {
      problems.push_back({"index-unreferenced", oid, ~0u,
                          rel.name + " is cataloged as an index but has no pg_index row"});
    }
  }
  return defs;
}

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
  TableInfo** const members[] = {&pg_class_, &pg_attribute_, &pg_type_, &pg_proc_,
                                 &pg_index_};  // in CatalogSpecs order
  for (size_t i = 0; i < std::size(members); ++i) {
    const auto& [oid, name, schema] = CatalogSpecs()[i];
    INV_ASSIGN_OR_RETURN(*members[i], MakeCachedTable(oid, name, schema, kDeviceMagneticDisk,
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

  // Relations, schemas and indexes: what DecodeCatalogDefs reads from the
  // current rows, refused as invfs_check reports it.
  const TableInfo* defining[] = {pg_class_, pg_attribute_, pg_index_};
  std::vector<CatalogRow> rows[3];
  for (size_t i = 0; i < 3; ++i) {
    const TableInfo& catalog = *defining[i];
    INV_RETURN_IF_ERROR(catalog.heap->VisitEach(snap, [&](Tid tid, auto tuple) -> Result<bool> {
      INV_ASSIGN_OR_RETURN(Row row, DecodeCatalogRow(catalog, tuple));
      rows[i].push_back({tid, std::move(row)});
      return false;
    }));
  }
  const CatalogDefs defs = DecodeCatalogDefs(rows[0], rows[1], rows[2]);
  if (!defs.problems.empty()) {
    const CatalogDefs::Problem& p = defs.problems.front();
    return Status::Corruption(p.invariant + ": " + p.detail);
  }
  Oid max_oid = kFirstUserOid - 1;
  for (const auto& [oid, rel] : defs.relations) {
    max_oid = std::max(max_oid, oid);
    devices_->BindRelation(oid, rel.device);
    if (rel.kind != RelKind::kIndex && !tables_.contains(oid)) {  // catalogs are cached
      INV_RETURN_IF_ERROR(
          MakeCachedTable(oid, rel.name, rel.schema, rel.device, rel.kind).status());
    }
  }
  // BTree::Open pins the meta page: open each after the visits.
  for (const CatalogDefs::Index& def : defs.indexes) {
    auto info = std::make_unique<IndexInfo>();
    info->oid = def.oid;
    info->table = def.heap;
    info->key_columns = def.key_columns;
    INV_ASSIGN_OR_RETURN(info->btree, BTree::Open(def.oid, pool_, def.key_width));
    tables_.at(def.heap)->indexes.push_back(info.get());
    indexes_[def.oid] = std::move(info);
  }
  for (auto& [oid, info] : tables_) {
    auto nit = table_names_.find(ArchiveBase(info->name));
    if (info->kind == RelKind::kArchive && nit != table_names_.end()) {
      tables_[nit->second]->archive_oid = oid;
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
            // An aborted vacuum's archive: its base table has none again.
            auto base = table_names_.find(ArchiveBase(info.name));
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
  const std::string name = ArchiveName(table->name);
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
