#include "src/vacuum/vacuum.h"

#include <algorithm>

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

  Catalog::Reclaim reclaim;
  reclaim.table = table;
  if (keep_history) {
    INV_ASSIGN_OR_RETURN(reclaim.archive, db_->catalog().CreateArchive(txn, table));
  }

  // Classify every physical version. Expunging them waits for the commit
  // (Catalog::OnCommit), so a second vacuum of `table` in this transaction
  // finds them again, and the first one's copies in the archive.
  ArchivePairing obsolete;
  INV_RETURN_IF_ERROR(table->heap->VisitEachStored([&](Tid tid, auto tuple) -> Result<bool> {
    ++stats.scanned;
    const TupleMeta meta = GetTupleMeta(tuple);
    const TxnStatus xmin_status = db_->txns().log().StatusOf(meta.xmin);
    if (xmin_status == TxnStatus::kAborted) {
      // Never visible to anyone: physically discard.
      reclaim.dead.push_back(tid);
      ++stats.discarded;
      return false;
    }
    if (xmin_status == TxnStatus::kInProgress) {
      ++stats.live;  // someone is mid-insert; leave alone
      return false;
    }
    if (now_snap.IsDeadForever(meta) &&
        (horizon == kInvalidTxn || meta.xmax < horizon)) {
      if (keep_history) {
        obsolete.Note(tid, tuple);
        ++stats.archived;
      } else {
        ++stats.discarded;
      }
      reclaim.dead.push_back(tid);
      return false;
    }
    ++stats.live;
    return false;
  }));
  if (!obsolete.notes().empty()) {
    if (Status st = Archive(txn, *table->heap, obsolete, &reclaim); !st.ok()) {
      // Reclaim nothing, but expunge the copies made so far on abort.
      reclaim.dead.clear();
      db_->catalog().ReclaimAtEnd(txn, std::move(reclaim));
      return st;
    }
  }
  if (!reclaim.dead.empty()) {
    db_->catalog().ReclaimAtEnd(txn, std::move(reclaim));
  }
  return stats;
}

Status VacuumCleaner::Archive(TxnId txn, const Heap& heap, ArchivePairing& obsolete,
                              Catalog::Reclaim* reclaim) {
  Heap& archive = *reclaim->archive->heap;
  INV_RETURN_IF_ERROR(archive.VisitEachStored([&](Tid tid, auto tuple) -> Result<bool> {
    obsolete.CopyOut(tid, tuple);
    return false;
  }));
  INV_RETURN_IF_ERROR(obsolete.Pair(heap));
  // The versions the archive lacks, copied in heap order.
  std::vector<Tid> missing;
  for (const ArchivePairing::Noted& noted : obsolete.notes()) {
    if (!noted.paired) {
      missing.push_back(noted.tid);
    }
  }
  std::sort(missing.begin(), missing.end());
  std::vector<std::byte> version;
  for (const Tid tid : missing) {
    // Classification saw it, and the table lock keeps it.
    INV_ASSIGN_OR_RETURN(const bool found, heap.VisitStored(tid, [&](auto tuple) {
      version.assign(tuple.begin(), tuple.end());
      return Status::Ok();
    }));
    if (!found) {
      return Status::NotFound("tuple " + tid.ToString() + " is gone");
    }
    INV_ASSIGN_OR_RETURN(Tid copy, archive.InsertStored(txn, version));
    reclaim->archived.push_back(copy);
  }
  return Status::Ok();
}

Result<VacuumStats> VacuumCleaner::VacuumAll(TxnId txn, bool keep_history) {
  VacuumStats total;
  for (TableInfo* table : db_->catalog().AllTables()) {
    if (table->kind != RelKind::kHeap || table->oid < kFirstUserOid) {
      continue;
    }
    INV_ASSIGN_OR_RETURN(VacuumStats s, VacuumTable(txn, table, keep_history));
    total += s;
  }
  return total;
}

}  // namespace invfs
