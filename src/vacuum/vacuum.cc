#include "src/vacuum/vacuum.h"

#include <map>

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
  std::vector<Obsolete> obsolete;
  auto it = table->heap->ScanAll();
  while (it.Next()) {
    ++stats.scanned;
    const TupleMeta& meta = it.meta();
    const TxnStatus xmin_status = db_->txns().log().StatusOf(meta.xmin);
    if (xmin_status == TxnStatus::kAborted) {
      // Never visible to anyone: physically discard.
      reclaim.dead.push_back(it.tid());
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
        obsolete.push_back({it.tid(), meta, it.row()[0]});
        ++stats.archived;
      } else {
        ++stats.discarded;
      }
      reclaim.dead.push_back(it.tid());
      continue;
    }
    ++stats.live;
  }
  INV_RETURN_IF_ERROR(it.status());
  if (!obsolete.empty()) {
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

Status VacuumCleaner::Archive(TxnId txn, const Heap& heap,
                              const std::vector<Obsolete>& obsolete,
                              Catalog::Reclaim* reclaim) {
  Heap& archive = *reclaim->archive->heap;
  // Each version the archive holds stands for at most one obsolete version
  // with its xmin, xmax and row. The first column sifts the candidates
  // before a row is fetched: versions stamped alike (every chunk one
  // overwrite replaced) differ in it.
  std::multimap<std::pair<TxnId, TxnId>, size_t> unmatched;
  for (size_t i = 0; i < obsolete.size(); ++i) {
    unmatched.emplace(std::pair(obsolete[i].meta.xmin, obsolete[i].meta.xmax), i);
  }
  std::vector<bool> held(obsolete.size());
  auto it = archive.ScanAll();
  while (it.Next()) {
    auto [first, last] = unmatched.equal_range({it.meta().xmin, it.meta().xmax});
    for (auto at = first; at != last; ++at) {
      if (!(obsolete[at->second].first == it.row()[0])) {
        continue;
      }
      INV_ASSIGN_OR_RETURN(auto version, heap.FetchAny(obsolete[at->second].tid));
      if (version.second == it.row()) {
        held[at->second] = true;
        unmatched.erase(at);
        break;
      }
    }
  }
  INV_RETURN_IF_ERROR(it.status());
  for (size_t i = 0; i < obsolete.size(); ++i) {
    if (held[i]) {
      continue;
    }
    INV_ASSIGN_OR_RETURN(auto version, heap.FetchAny(obsolete[i].tid));
    INV_ASSIGN_OR_RETURN(Tid copy, archive.InsertRaw(txn, version.second, version.first));
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
    total.scanned += s.scanned;
    total.archived += s.archived;
    total.discarded += s.discarded;
    total.live += s.live;
  }
  return total;
}

}  // namespace invfs
