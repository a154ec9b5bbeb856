// TxnManager: transaction lifecycle over the commit log, buffer pool force
// policy, and lock manager.
//
// Commit sequence (POSTGRES, no WAL):
//   1. force every dirty page of every relation the transaction touched to
//      its device (the no-overwrite manager's only durability requirement);
//   2. persist the commit-log entry with the commit timestamp.
// The commit-log write is the commit point: a crash before it leaves every
// tuple stamped with this xid invisible forever; a crash after it finds all
// the data already on stable storage.
//
// Transactions begin in one of two modes:
//   * kReadWrite — a real xid from the commit log, strict 2PL on every
//     relation it writes, and a snapshot-isolation view for any reads that
//     precede its first write (ReadSnapshot degrades to the live snapshot
//     once the transaction writes, because read-modify-write under an
//     exclusive lock must see current state).
//   * kReadOnly — a *virtual* xid (high bit set) that never enters the
//     commit log: no begin record, no commit record, no log I/O at all, so
//     pure readers keep working even on a poisoned log. The transaction is
//     pinned to the SnapshotState captured at begin and acquires no data
//     locks — writers never block it and it never blocks writers. Read-only
//     transactions live in a registry of their own, striped by the beginning
//     thread's tag, so concurrent readers share no lock or cache line here.
//
// Neither POSTGRES 4.0.1 nor Inversion supports nested transactions, so one
// client has at most one transaction open at a time; the Inversion layer
// enforces that per-session rule.

#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/sim/sim_clock.h"
#include "src/txn/commit_log.h"
#include "src/txn/lock_manager.h"
#include "src/txn/snapshot.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

enum class TxnMode {
  kReadWrite,
  kReadOnly,
};

// Virtual xids for read-only transactions live in the top half of the xid
// space; real xid allocation never gets near it (the commit log would be
// 32 TB of entries first). They stamp no tuples, so visibility code only
// ever sees them as a Snapshot's `self`, where StatusOf answers kUnused.
// The low bits of a virtual xid name the registry stripe that holds it.
inline constexpr TxnId kReadOnlyXidBase = 0x80000000u;

inline bool IsReadOnlyTxn(TxnId xid) { return xid >= kReadOnlyXidBase; }

class TxnManager {
 public:
  // `metrics` receives txn.begins/commits/aborts; nullptr gives the manager
  // a private registry.
  TxnManager(CommitLog* log, BufferPool* buffers, LockManager* locks,
             SimClock* clock, MetricsRegistry* metrics = nullptr);

  Result<TxnId> Begin(TxnMode mode = TxnMode::kReadWrite);
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);
  bool IsActive(TxnId txn) const;

  // Record that `txn` dirtied `rel`, so commit knows what to force. Also
  // marks the transaction written (see ReadSnapshot).
  void NoteTouched(TxnId txn, Oid rel);

  // The transaction has acquired write intent (its first exclusive lock):
  // from here on its reads must observe current state, not the begin-time
  // pin, or its read-modify-write cycles would resurrect overwritten data.
  void MarkWritten(TxnId txn);

  // Current-state snapshot as seen by `txn` (includes its own writes). Live:
  // consults the commit log afresh on every check.
  Snapshot SnapshotFor(TxnId txn) const;
  // Historical snapshot: the transaction-consistent state at time `t`.
  // Pinned, so in-flight commits can't shift visibility mid-scan.
  Snapshot SnapshotAt(Timestamp t) const;
  // The snapshot `txn`'s *reads* should use: the begin-time pinned view
  // while the transaction has not written (always, for read-only mode), the
  // live SnapshotFor view after its first write.
  Snapshot ReadSnapshot(TxnId txn) const;

  // Lowest xid whose effects some active pinned snapshot might not see;
  // kInvalidTxn when no unwritten pinned transactions are active. Vacuum may
  // only reclaim a version whose deleter committed below this horizon —
  // anything at or above it may still be visible to a running reader.
  TxnId OldestActiveXmin() const;

  // Transactions currently open (read-write and read-only). The net-fault
  // oracle uses this as a quiescence check: after a session reset the server
  // must have aborted the orphaned transaction, not leaked it.
  size_t ActiveTxnCount() const;

  Timestamp Now() { return clock_->Now(); }

  LockManager& locks() { return *locks_; }
  CommitLog& log() { return *log_; }

 private:
  // A read-write transaction.
  struct ActiveTxn {
    std::set<Oid> touched;  // relations dirtied (commit force set)
    std::shared_ptr<const SnapshotState> pinned;  // begin-time xid view
    bool written = false;
  };

  // A read-only transaction. It reads its pin until it ends: it can take no
  // exclusive lock, so it never switches to live state. `dirtied` is only
  // set by a caller bug (a write under a read-only xid); Commit refuses it.
  struct ReadOnlyTxn {
    TxnId xid = kInvalidTxn;
    std::shared_ptr<const SnapshotState> pinned;
    bool dirtied = false;
  };

  // One stripe of the read-only registry. A thread begins in its
  // ThreadStripe(), which no other live thread holds (except the shared
  // stripe 0), on cache lines of its own. Few transactions are open per
  // stripe, so a vector beats a map and, once warm, allocates nothing.
  static constexpr TxnId kReadOnlyStripes = kThreadStripes;
  struct alignas(64) ReadOnlyStripe {
    Mutex mu;
    TxnId next_seq GUARDED_BY(mu) = 1;
    std::vector<ReadOnlyTxn> active GUARDED_BY(mu);

    ReadOnlyTxn* Find(TxnId xid) REQUIRES(mu);
  };

  ReadOnlyStripe& StripeOf(TxnId xid) const {
    return ro_[(xid - kReadOnlyXidBase) % kReadOnlyStripes];
  }
  Result<TxnId> BeginReadOnly();
  // Remove `xid` from its stripe; false when it was not active.
  bool EndReadOnly(TxnId xid, bool* dirtied);

  CommitLog* log_;
  BufferPool* buffers_;
  LockManager* locks_;
  SimClock* clock_;

  // Read-write transactions only.
  mutable Mutex mu_;
  std::map<TxnId, ActiveTxn> active_ GUARDED_BY(mu_);

  mutable std::array<ReadOnlyStripe, kReadOnlyStripes> ro_;

  // txn.* metrics.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* begins_ = nullptr;
  Counter* ro_begins_ = nullptr;
  Counter* commits_ = nullptr;
  Counter* aborts_ = nullptr;
};

}  // namespace invfs
