// The vacuum cleaner: POSTGRES' record archiver.
//
// "Periodically, obsolete records must be garbage-collected from the
// database, and either moved elsewhere or physically deleted. ... POSTGRES
// includes a special-purpose process, called the vacuum cleaner, that
// archives records. Obsolete records are physically removed from the table in
// which they originally appeared, and are moved to an archive."
//
// A record version is obsolete once its deleter has committed: no present or
// future current-time snapshot can see it. With archiving enabled the version
// moves (with its original xmin/xmax!) to the table's archive relation
// ("a,<name>"), so historical snapshots keep working; with archiving disabled
// ("POSTGRES can be instructed not to save old versions") the history is
// discarded. Versions written by aborted transactions are always discarded.
//
// Vacuum's transaction only classifies versions and writes the archive.
// The physical reclaim runs at its commit (Catalog::OnCommit), once the
// commit record, and with it the archive, is durable: the dead versions are
// expunged, their pages compacted in place, and each index walked once to
// drop the entries that name no surviving version. No index is rebuilt, so
// lock-free readers probe the same B-tree throughout. An aborted vacuum
// leaves the heap as it was and takes its archive copies back out; neither
// it nor one a crash interrupts loses a version. A crash can leave a version
// in both heap and archive; the next vacuum does not copy it again.

#pragma once

#include "src/catalog/database.h"

namespace invfs {

struct VacuumStats {
  uint64_t scanned = 0;
  uint64_t archived = 0;   // dead versions moved to the archive
  uint64_t discarded = 0;  // aborted-insert versions physically dropped
  uint64_t live = 0;

  VacuumStats& operator+=(const VacuumStats& other) {
    scanned += other.scanned;
    archived += other.archived;
    discarded += other.discarded;
    live += other.live;
    return *this;
  }
};

class VacuumCleaner {
 public:
  explicit VacuumCleaner(Database* db) : db_(db) {}

  // Vacuum one table inside the caller's transaction (takes an X lock); the
  // table is reclaimed when that transaction commits. `keep_history` false
  // discards obsolete versions instead of archiving.
  Result<VacuumStats> VacuumTable(TxnId txn, TableInfo* table,
                                  bool keep_history = true);

  // Vacuum every user heap (not catalogs, not archives, not indices).
  Result<VacuumStats> VacuumAll(TxnId txn, bool keep_history = true);

 private:
  // Copies the versions `obsolete` notes from `heap` into `reclaim`'s archive,
  // noting each copy's TID, but for those the archive holds already: a
  // vacuum that a crash cut short, before its commit or before its reclaim
  // reached the disk, leaves its copies there and the versions in the heap,
  // as does an earlier vacuum of the table in the same transaction.
  Status Archive(TxnId txn, const Heap& heap, ArchivePairing& obsolete,
                 Catalog::Reclaim* reclaim);

  Database* db_;
};

}  // namespace invfs
