#include "src/vacuum/vacuum.h"

namespace invfs {

Result<VacuumStats> VacuumCleaner::VacuumTable(TxnId txn, TableInfo* table,
                                               bool keep_history) {
  INV_RETURN_IF_ERROR(db_->LockTable(txn, table, LockMode::kExclusive));
  const Snapshot now_snap = db_->SnapshotFor(txn);
  // Snapshot-isolation readers scan with no table lock, pinned at their
  // begin time. A version whose deleter committed *after* such a reader
  // pinned is still visible to it; only versions dead before the oldest
  // pinned horizon may be physically reclaimed. kInvalidTxn = no pinned
  // readers, so nothing constrains reclamation.
  const TxnId horizon = db_->txns().OldestActiveXmin();
  VacuumStats stats;

  TableInfo* archive = nullptr;
  if (keep_history) {
    INV_ASSIGN_OR_RETURN(archive, db_->catalog().CreateArchive(txn, table));
  }

  // Pass 1: classify every physical version.
  struct Doomed {
    Tid tid;
    bool archive;
  };
  std::vector<Doomed> doomed;
  {
    auto it = table->heap->ScanAll();
    while (it.Next()) {
      ++stats.scanned;
      const TupleMeta& meta = it.meta();
      const TxnStatus xmin_status = db_->txns().log().StatusOf(meta.xmin);
      if (xmin_status == TxnStatus::kAborted) {
        // Never visible to anyone: physically discard.
        doomed.push_back({it.tid(), false});
        ++stats.discarded;
        continue;
      }
      if (xmin_status == TxnStatus::kInProgress) {
        ++stats.live;  // someone is mid-insert; leave alone
        continue;
      }
      if (now_snap.IsDeadForever(meta) &&
          (horizon == kInvalidTxn || meta.xmax < horizon)) {
        if (keep_history) {
          INV_RETURN_IF_ERROR(
              archive->heap->InsertRaw(txn, it.row(), meta).status());
          ++stats.archived;
        } else {
          ++stats.discarded;
        }
        doomed.push_back({it.tid(), keep_history});
        continue;
      }
      ++stats.live;
    }
    INV_RETURN_IF_ERROR(it.status());
  }

  // Pass 2: expunge and compact.
  for (const Doomed& d : doomed) {
    INV_RETURN_IF_ERROR(table->heap->Expunge(d.tid));
  }
  if (!doomed.empty()) {
    INV_RETURN_IF_ERROR(table->heap->CompactAllPages());
    db_->txns().NoteTouched(txn, table->oid);
    // TIDs changed meaning (slots died): rebuild every index.
    for (IndexInfo* idx : table->indexes) {
      INV_RETURN_IF_ERROR(RebuildIndex(table, idx));
    }
  }
  return stats;
}

Result<VacuumStats> VacuumCleaner::VacuumAll(TxnId txn, bool keep_history) {
  VacuumStats total;
  for (TableInfo* table : db_->catalog().AllTables()) {
    if (table->kind != RelKind::kHeap || table->oid < kFirstUserOid) {
      continue;
    }
    INV_ASSIGN_OR_RETURN(VacuumStats s, VacuumTable(txn, table, keep_history));
    total.scanned += s.scanned;
    total.archived += s.archived;
    total.discarded += s.discarded;
    total.live += s.live;
  }
  return total;
}

Status VacuumCleaner::RebuildIndex(TableInfo* table, IndexInfo* index) {
  // Recreate the index relation from scratch on its device, then reinsert an
  // entry for every surviving heap version.
  //
  // Exclusive gate entry: lock-free readers probe index->btree with no table
  // lock, and this function both replaces the BTree object wholesale and
  // leaves the index incomplete until reinsertion finishes. Taken after the
  // caller's exclusive table lock (gate is always innermost), and shared
  // holders never block while inside, so this cannot deadlock.
  ExclusiveGateLock gate(db_->probe_gate());
  INV_ASSIGN_OR_RETURN(DeviceManager * mgr, db_->devices().ManagerFor(index->oid));
  db_->buffers().DiscardRelation(index->oid);
  INV_RETURN_IF_ERROR(mgr->DropRelation(index->oid));
  INV_RETURN_IF_ERROR(mgr->CreateRelation(index->oid));
  INV_ASSIGN_OR_RETURN(index->btree,
                       BTree::Create(index->oid, db_->buffers_ptr(),
                                     FixedKeyWidth(table->schema, index->key_columns)));
  auto it = table->heap->ScanAll();
  while (it.Next()) {
    INV_ASSIGN_OR_RETURN(const BtreeKey key, EncodeKey(it.row(), index->key_columns));
    INV_RETURN_IF_ERROR(index->btree->Insert(key, it.tid()));
  }
  return it.status();
}

}  // namespace invfs
