#include "src/vacuum/vacuum.h"

#include <algorithm>
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
        INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(table->schema, tuple));
        obsolete.push_back({tid, meta, std::move(row[0])});
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
  // The archive versions that may hold a candidate. The heap rows they are
  // compared with are read after the visit, which holds a page latch.
  std::vector<std::pair<TupleMeta, Row>> copies;
  INV_RETURN_IF_ERROR(archive.VisitEachStored([&](Tid, auto tuple) -> Result<bool> {
    const TupleMeta meta = GetTupleMeta(tuple);
    auto [first, last] = unmatched.equal_range({meta.xmin, meta.xmax});
    if (first == last) {
      return false;
    }
    INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(archive.schema(), tuple));
    if (std::any_of(first, last,
                    [&](const auto& c) { return obsolete[c.second].first == row[0]; })) {
      copies.emplace_back(meta, std::move(row));
    }
    return false;
  }));
  // The row at `tid`: classification saw it, and the table lock keeps it.
  auto stored_row = [&heap](Tid tid) -> Result<Row> {
    Row row;
    INV_ASSIGN_OR_RETURN(const bool found, heap.VisitStored(tid, [&](auto tuple) -> Status {
      INV_ASSIGN_OR_RETURN(row, DecodeTuple(heap.schema(), tuple));
      return Status::Ok();
    }));
    if (!found) {
      return Status::NotFound("tuple " + tid.ToString() + " is gone");
    }
    return row;
  };
  std::vector<bool> held(obsolete.size());
  for (const auto& [meta, row] : copies) {
    auto [first, last] = unmatched.equal_range({meta.xmin, meta.xmax});
    for (auto at = first; at != last; ++at) {
      if (!(obsolete[at->second].first == row[0])) {
        continue;
      }
      INV_ASSIGN_OR_RETURN(const Row version, stored_row(obsolete[at->second].tid));
      if (version == row) {
        held[at->second] = true;
        unmatched.erase(at);
        break;
      }
    }
  }
  for (size_t i = 0; i < obsolete.size(); ++i) {
    if (held[i]) {
      continue;
    }
    INV_ASSIGN_OR_RETURN(const Row version, stored_row(obsolete[i].tid));
    INV_ASSIGN_OR_RETURN(Tid copy, archive.InsertRaw(txn, version, obsolete[i].meta));
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
