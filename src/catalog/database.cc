#include "src/catalog/database.h"

#include <algorithm>

#include "src/fault/switch_entry.h"

namespace invfs {

Database::Database(StorageEnv* env, DatabaseOptions options)
    : options_(options),
      clock_(&env->clock),
      metrics_(options_.span_ring_capacity) {
  // Each switch entry is one SwitchEntry over the concrete device: fault
  // injection, instrumentation and the retry/read-only policy per attempt.
  // Code needing the concrete device type downcasts Underlying().
  auto wrap = [this, &options](std::unique_ptr<DeviceManager> dev) {
    return std::make_unique<SwitchEntry>(std::move(dev), clock_, &metrics_,
                                         options.fault_injector);
  };
  devices_.Register(kDeviceMagneticDisk, wrap(std::make_unique<MagneticDiskDevice>(
                                             env->disk_store.get(), clock_, options.disk)));
  devices_.Register(kDeviceNvram,
                    wrap(std::make_unique<NvramDevice>(env->nvram_store.get())));
  devices_.Register(kDeviceJukebox,
                    wrap(std::make_unique<JukeboxDevice>(env->jukebox_store.get(), clock_,
                                                         options.jukebox, options.disk)));
  buffers_ = std::make_unique<BufferPool>(&devices_, options.buffers, clock_, options.cpu,
                                          /*partitions=*/0, &metrics_);
}

Result<std::unique_ptr<Database>> Database::Open(StorageEnv* env,
                                                 DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database(env, options));
  DeviceManager* disk = db->devices_.Get(kDeviceMagneticDisk);
  db->devices_.BindRelation(kCommitLogRelOid, kDeviceMagneticDisk);
  INV_ASSIGN_OR_RETURN(db->log_, CommitLog::Open(disk, &db->metrics_));
  db->txns_ = std::make_unique<TxnManager>(db->log_.get(), db->buffers_.get(),
                                           &db->locks_, db->clock_, &db->metrics_);
  db->catalog_ = std::make_unique<Catalog>(&db->devices_, db->buffers_.get(),
                                           db->txns_.get());
  if (Catalog::Exists(disk)) {
    INV_RETURN_IF_ERROR(db->catalog_->Load());
  } else {
    INV_RETURN_IF_ERROR(db->catalog_->Bootstrap());
  }
  return db;
}

Database::~Database() = default;

Result<TxnId> Database::Begin(TxnMode mode) {
  if (crashed_) {
    return Status::Internal("database has crashed");
  }
  if (mode == TxnMode::kReadWrite && log_->poisoned()) {
    // Fail-stop read-only: a permanently failed commit-log flush means no
    // future commit could be made durable, so refuse new transactions
    // cleanly up front instead of failing at commit time. Read-only begins
    // pass: they need no log record, so degraded devices keep serving reads.
    return Status::ReadOnlyDevice(
        "commit log is poisoned; database is fail-stop read-only");
  }
  return txns_->Begin(mode);
}

bool Database::read_only() const { return log_ != nullptr && log_->poisoned(); }

Status Database::Commit(TxnId txn) {
  INV_RETURN_IF_ERROR(txns_->Commit(txn));
  // A read-only transaction that commits created, dropped and vacuumed
  // nothing, and holds no locks: DDL writes catalog rows, and TxnManager
  // refuses to commit a read-only transaction that wrote. Skipping the no-op
  // keeps the catalog mutex off the read path. (Abort keeps the call, so DDL
  // a caller wrongly ran under a read-only xid is still undone.)
  if (IsReadOnlyTxn(txn)) {
    return Status::Ok();
  }
  // The commit record is durable; reclaim, then let other writers in.
  const Status reclaimed = catalog_->OnCommit(txn);
  locks_.ReleaseAll(txn);
  return reclaimed;
}

Status Database::Abort(TxnId txn) {
  INV_RETURN_IF_ERROR(txns_->Abort(txn));
  // Undo, then let other writers in.
  const Status undone = catalog_->OnAbort(txn);
  if (!IsReadOnlyTxn(txn)) {
    locks_.ReleaseAll(txn);
  }
  return undone;
}

Result<Tid> Database::InsertRow(TxnId txn, TableInfo* table, const Row& row,
                                Oid row_oid) {
  INV_ASSIGN_OR_RETURN(Tid tid, table->heap->Insert(txn, row, row_oid));
  for (IndexInfo* idx : table->indexes) {
    INV_ASSIGN_OR_RETURN(const BtreeKey key, EncodeKey(row, idx->key_columns));
    INV_RETURN_IF_ERROR(idx->btree->Insert(key, tid));
    txns_->NoteTouched(txn, idx->oid);
    // POSTGRES 4.0.1 forced modified index pages out eagerly; the paper
    // blames exactly this for file-creation throughput ("Btree writes are
    // interleaved with data file writes, penalizing Inversion by forcing the
    // disk head to move frequently").
    INV_RETURN_IF_ERROR(buffers_->FlushRelation(idx->oid));
  }
  return tid;
}

Status Database::DeleteRow(TxnId txn, TableInfo* table, Tid tid) {
  // Index entries are intentionally retained: old versions must stay
  // reachable for time travel; vacuum drops them once it expunges a version.
  return table->heap->Delete(txn, tid);
}

Result<Tid> Database::ReplaceRow(TxnId txn, TableInfo* table, Tid old_tid,
                                 const Row& row, Oid row_oid) {
  INV_RETURN_IF_ERROR(DeleteRow(txn, table, old_tid));
  return InsertRow(txn, table, row, row_oid);
}

Status Database::LockTable(TxnId txn, const TableInfo* table, LockMode mode) {
  if (IsReadOnlyTxn(txn)) {
    // The read-only promise is structural: these transactions read pinned
    // snapshots and never enter the lock manager, so writers can never block
    // them — and an attempt to lock from one is a caller bug, not a wait.
    return Status::InvalidArgument("read-only txn " + std::to_string(txn) +
                                   " cannot take table locks");
  }
  Status s = locks_.Acquire(txn, table->oid, mode);
  if (s.IsDeadlock()) {
    // The victim must abort; surface the deadlock to the caller after
    // cleaning up so the lock graph unwedges immediately.
    (void)Abort(txn);
  }
  if (s.ok() && mode == LockMode::kExclusive) {
    // Write intent: from here on this transaction's reads must see current
    // state (its re-checks after locking rely on it), so drop the pin.
    txns_->MarkWritten(txn);
  }
  return s;
}

Result<TidList> Database::Probe(const IndexInfo& index, const BtreeKey& key,
                                KeyMatch match) {
  // Lock-free readers reach the B-tree with no table lock. Nothing replaces
  // the BTree object, and vacuum removes entries in place under its latch.
  if (match == KeyMatch::kExact) {
    return index.btree->Lookup(key);
  }
  TidList tids;
  INV_ASSIGN_OR_RETURN(BTree::Iterator it, index.btree->Seek(key));
  while (it.Valid() && it.key().size() >= key.size() &&
         std::equal(key.begin(), key.end(), it.key().begin())) {
    tids.push_back(it.tid());
    INV_RETURN_IF_ERROR(it.Advance());
  }
  return tids;
}

Status Database::FlushCaches() { return buffers_->FlushAndInvalidate(); }

void Database::Crash() {
  buffers_->DiscardAll();
  crashed_ = true;
}

}  // namespace invfs
