#include "src/catalog/database.h"

#include "src/device/instrumented_device.h"
#include "src/fault/fault_device.h"

namespace invfs {

Database::Database(StorageEnv* env, DatabaseOptions options)
    : options_(options),
      clock_(&env->clock),
      metrics_(options_.trace_ring_capacity, options_.span_ring_capacity) {
  metrics_.ConfigureTimeseries(options_.timeseries_interval_micros,
                               options_.timeseries_capacity);
  // Every device goes through the switch stacked as
  // Policy(Instrumented(Fault(real))): the fault injector (when configured)
  // sits closest to the store so corruption lands in the raw image, the
  // instrumentation above it sees every physical attempt including retries,
  // and the error policy on top retries transients and trips read-only on
  // permanent write failures. Code needing the concrete device type
  // downcasts Underlying().
  auto wrap = [this, &options](std::unique_ptr<DeviceManager> dev)
      -> std::unique_ptr<DeviceManager> {
    if (options.fault_injector != nullptr) {
      dev = std::make_unique<FaultDevice>(std::move(dev), options.fault_injector);
    }
    auto instrumented =
        std::make_unique<InstrumentedDevice>(std::move(dev), clock_, &metrics_);
    return std::make_unique<ErrorPolicyDevice>(
        std::move(instrumented), clock_, options.error_policy, &metrics_);
  };
  devices_.Register(kDeviceMagneticDisk,
                    wrap(std::make_unique<MagneticDiskDevice>(
                        env->disk_store.get(), clock_, options.disk,
                        options.disk_extent_pages)));
  if (options.enable_nvram) {
    devices_.Register(kDeviceNvram,
                      wrap(std::make_unique<NvramDevice>(env->nvram_store.get())));
  }
  if (options.enable_jukebox) {
    devices_.Register(kDeviceJukebox,
                      wrap(std::make_unique<JukeboxDevice>(env->jukebox_store.get(),
                                                           clock_, options.jukebox,
                                                           options.disk)));
  }
  buffers_ = std::make_unique<BufferPool>(&devices_, options.buffers, clock_,
                                          options.cpu, options.buffer_partitions,
                                          &metrics_);
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
  // A read-only transaction that commits created and dropped nothing: DDL
  // writes catalog rows, and TxnManager refuses to commit a read-only
  // transaction that wrote. Skipping the no-op keeps the catalog mutex off
  // the read path. (Abort keeps the call, so DDL a caller wrongly ran under
  // a read-only xid is still undone.)
  if (!IsReadOnlyTxn(txn)) {
    catalog_->OnCommit(txn);
  }
  return Status::Ok();
}

Status Database::Abort(TxnId txn) {
  INV_RETURN_IF_ERROR(txns_->Abort(txn));
  catalog_->OnAbort(txn);
  return Status::Ok();
}

Result<Tid> Database::InsertRow(TxnId txn, TableInfo* table, const Row& row,
                                Oid row_oid) {
  INV_ASSIGN_OR_RETURN(Tid tid, table->heap->Insert(txn, row, row_oid));
  for (IndexInfo* idx : table->indexes) {
    std::vector<Value> key_vals;
    key_vals.reserve(idx->key_columns.size());
    for (size_t c : idx->key_columns) {
      key_vals.push_back(row[c]);
    }
    INV_ASSIGN_OR_RETURN(BtreeKey key, EncodeKey(key_vals));
    INV_RETURN_IF_ERROR(idx->btree->Insert(key, tid));
    txns_->NoteTouched(txn, idx->oid);
    if (options_.write_through_indexes) {
      INV_RETURN_IF_ERROR(buffers_->FlushRelation(idx->oid));
    }
  }
  return tid;
}

Status Database::DeleteRow(TxnId txn, TableInfo* table, Tid tid) {
  // Index entries are intentionally retained: old versions must stay
  // reachable for time travel; vacuum rebuilds indices after expunging.
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

Status Database::FlushCaches() { return buffers_->FlushAndInvalidate(); }

void Database::Crash() {
  buffers_->DiscardAll();
  crashed_ = true;
}

}  // namespace invfs
