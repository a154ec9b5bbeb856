// Database: the facade that assembles the whole POSTGRES-analogue engine.
//
// One Database corresponds to one POSTGRES database, which in Inversion terms
// is one mount point ("A single database corresponds to a mount point in
// conventional file system architectures"). It owns the device switch, buffer
// pool, commit log, lock manager, transaction manager and catalogs, and
// provides row-level helpers that keep B-tree indices maintained.
//
// Durability model and crash simulation: all stable storage lives in the
// caller-owned StorageEnv (block stores + simulated clock). Crash() throws
// away every volatile structure; re-Open()ing the same StorageEnv performs
// POSTGRES' "recovery" — which is nothing but reading the commit log.

#pragma once

#include <memory>

#include "src/catalog/catalog.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/sim/cost_params.h"
#include "src/sim/sim_clock.h"
#include "src/txn/txn_manager.h"

namespace invfs {

class FaultInjector;

// Caller-owned persistent world: survives Database teardown, so tests and
// examples can crash and reopen.
struct StorageEnv {
  SimClock clock;
  std::unique_ptr<BlockStore> disk_store = std::make_unique<MemBlockStore>();
  std::unique_ptr<BlockStore> nvram_store = std::make_unique<MemBlockStore>();
  std::unique_ptr<BlockStore> jukebox_store = std::make_unique<MemBlockStore>();
};

struct DatabaseOptions {
  size_t buffers = kDefaultBuffers;  // 64 as shipped; Berkeley ran 300
  DiskParams disk{};
  JukeboxParams jukebox{};
  CpuParams cpu{};
  // Optional fault injection: when set, every device's SwitchEntry consults
  // this injector on each I/O attempt, retries included. Caller-owned; must
  // outlive the Database.
  FaultInjector* fault_injector = nullptr;
  // Capacity of the per-registry span ring (rounded up to a power of two).
  // Sizing is a retention/memory tradeoff only; recording cost is
  // capacity-independent.
  size_t span_ring_capacity = SpanRing::kDefaultCapacity;
  // Declared latency objectives, evaluated against the op.latency_us
  // histograms (invfs_stats --slo, the invfs_slo relation).
  std::vector<SloTarget> slo_targets = DefaultSloTargets();
};

class Database {
 public:
  // Opens (bootstrapping if empty) the database stored in `env`.
  static Result<std::unique_ptr<Database>> Open(StorageEnv* env,
                                                DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- transactions --------------------------------------------------------

  // Read-only begins are accepted even on a poisoned (fail-stop read-only)
  // database: they touch neither the commit log nor the lock manager.
  Result<TxnId> Begin(TxnMode mode = TxnMode::kReadWrite);
  // Makes `txn` durable, reclaims what it dropped or vacuumed
  // (Catalog::OnCommit), then releases its locks. A reclaim error is
  // returned, but the commit stands.
  Status Commit(TxnId txn);
  // Aborts `txn`, undoes its DDL and vacuum copies (Catalog::OnAbort), then
  // releases its locks. An undo error is returned, but the abort stands.
  Status Abort(TxnId txn);
  Snapshot SnapshotFor(TxnId txn) const { return txns_->SnapshotFor(txn); }
  Snapshot SnapshotAt(Timestamp t) const { return txns_->SnapshotAt(t); }
  // The pinned begin-time snapshot while `txn` has not written; the live
  // snapshot after its first write (or for unknown txns).
  Snapshot ReadSnapshot(TxnId txn) const { return txns_->ReadSnapshot(txn); }
  Timestamp Now() { return clock_->Now(); }

  // --- row operations with index maintenance -------------------------------

  Result<Tid> InsertRow(TxnId txn, TableInfo* table, const Row& row,
                        Oid row_oid = kInvalidOid);
  Status DeleteRow(TxnId txn, TableInfo* table, Tid tid);
  Result<Tid> ReplaceRow(TxnId txn, TableInfo* table, Tid old_tid, const Row& row,
                         Oid row_oid = kInvalidOid);

  // Two-phase locking entry point (released automatically at commit/abort).
  // Refused for read-only transactions: they read pinned snapshots and are
  // promised never to touch the lock manager. An exclusive acquisition marks
  // the transaction written (its reads switch to live snapshots).
  Status LockTable(TxnId txn, const TableInfo* table, LockMode mode);

  // --- versioned lookups -----------------------------------------------------

  // kExact: the index entries equal to the key; kPrefix: those starting
  // with it (a leading column of a composite key).
  enum class KeyMatch { kExact, kPrefix };

  // The one "index, then archive" read. Calls `fn(tid, tuple) -> Result<bool>`
  // on each version of `table` visible under `snap` among the TIDs `index`
  // holds under `key` (every heap version when `index` is null), then, for an
  // as-of snapshot, on each visible version in the table's archive. Stops
  // once `fn` returns true; returns whether it did. `fn` runs under the page
  // latch with Heap::Visit's rules (so no nested lookup) and must check the
  // key itself: the archive and index-less passes offer every version. A
  // version that a cut-short vacuum left in both heap and archive is offered
  // once (ArchivePairing): its archive copy is offered only if no version
  // the heap pass offered has its bytes, and then after the archive visit.
  // Only a vacuum's reclaim that runs between the two passes can make a
  // version be offered twice (DESIGN.md, "Versioned lookups").
  template <typename Fn>
  Result<bool> VisitVersions(const TableInfo* table, const IndexInfo* index,
                             const BtreeKey& key, KeyMatch match,
                             const Snapshot& snap, Fn&& fn);

  // --- administration -------------------------------------------------------

  // Flush all dirty pages and drop every cached page ("all caches were
  // flushed before each test").
  Status FlushCaches();

  // Simulate a hard crash: volatile state vanishes, stable storage stays.
  // The Database object is unusable afterwards; re-Open the StorageEnv.
  void Crash();

  // True once the commit log is poisoned (a flush failed permanently): the
  // database is fail-stop read-only — Begin() refuses new transactions with
  // kReadOnlyDevice while reads, snapshots, and time travel keep working.
  bool read_only() const;

  // --- components ------------------------------------------------------------

  Catalog& catalog() { return *catalog_; }
  CommitLog& commit_log() { return *log_; }
  BufferPool* buffers_ptr() { return buffers_.get(); }
  TxnManager& txns() { return *txns_; }
  BufferPool& buffers() { return *buffers_; }
  DeviceSwitch& devices() { return devices_; }
  LockManager& locks() { return locks_; }
  SimClock& clock() { return *clock_; }
  // Every component's counters/histograms/spans for this database. Queryable
  // through the `invfs_stats` / `invfs_spans` virtual relations.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const DatabaseOptions& options() const { return options_; }

 private:
  Database(StorageEnv* env, DatabaseOptions options);

  // VisitVersions' heap pass: the TIDs `index` holds under `key`, or every
  // heap version with no index. Returns whether `fn` stopped it.
  template <typename Fn>
  Result<bool> VisitHeap(const TableInfo* table, const IndexInfo* index,
                         const BtreeKey& key, KeyMatch match, const Snapshot& snap,
                         Fn& fn);
  // The TIDs `index` holds under `key`.
  Result<TidList> Probe(const IndexInfo& index, const BtreeKey& key, KeyMatch match);

  DatabaseOptions options_;
  SimClock* clock_;
  // Declared before every component that registers metrics into it.
  MetricsRegistry metrics_;
  DeviceSwitch devices_;
  LockManager locks_{&metrics_};
  std::unique_ptr<BufferPool> buffers_;
  std::unique_ptr<CommitLog> log_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<Catalog> catalog_;
  bool crashed_ = false;
};

template <typename Fn>
Result<bool> Database::VisitVersions(const TableInfo* table, const IndexInfo* index,
                                     const BtreeKey& key, KeyMatch match,
                                     const Snapshot& snap, Fn&& fn) {
  if (!snap.is_historical()) {
    return VisitHeap(table, index, key, match, snap, fn);
  }
  // The versions offered from the heap that a vacuum may have copied into
  // the archive already.
  ArchivePairing moved;
  auto note = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    moved.Note(tid, tuple);
    return fn(tid, tuple);
  };
  INV_ASSIGN_OR_RETURN(bool stopped, VisitHeap(table, index, key, match, snap, note));
  // Loaded after the heap pass: a vacuum that commits in between has its
  // copies in the archive by then.
  const Oid archive = stopped ? kInvalidOid : table->archive_oid.load();
  if (archive == kInvalidOid) {
    return stopped;
  }
  INV_ASSIGN_OR_RETURN(TableInfo * archive_table, catalog_->GetTableByOid(archive));
  auto visit = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(stopped, fn(tid, tuple));
    return stopped;
  };
  INV_RETURN_IF_ERROR(archive_table->heap->VisitEach(
      snap, [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
        if (moved.CopyOut(tid, tuple)) {
          return false;
        }
        return visit(tid, tuple);
      }));
  if (!stopped) {
    INV_RETURN_IF_ERROR(moved.Pair(*table->heap));
  }
  for (size_t i = 0; i < moved.copies().size() && !stopped; ++i) {
    const ArchivePairing::Copy& copy = moved.copies()[i];
    if (!copy.paired) {
      INV_RETURN_IF_ERROR(visit(copy.tid, copy.bytes).status());
    }
  }
  return stopped;
}

template <typename Fn>
Result<bool> Database::VisitHeap(const TableInfo* table, const IndexInfo* index,
                                 const BtreeKey& key, KeyMatch match, const Snapshot& snap,
                                 Fn& fn) {
  bool stopped = false;
  auto visit = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(stopped, fn(tid, tuple));
    return stopped;
  };
  if (index == nullptr) {
    INV_RETURN_IF_ERROR(table->heap->VisitEach(snap, visit));
    return stopped;
  }
  INV_ASSIGN_OR_RETURN(const TidList tids, Probe(*index, key, match));
  for (size_t i = 0; i < tids.size() && !stopped; ++i) {
    INV_RETURN_IF_ERROR(table->heap->Visit(snap, tids[i], [&](auto tuple) {
      return visit(tids[i], tuple).status();
    }).status());
  }
  return stopped;
}

}  // namespace invfs
